package serve

import (
	"sync"
	"time"

	"athena/internal/core"
)

// batchHistBuckets are the inclusive upper bounds of the batch-size
// histogram; the last bucket is open-ended.
var batchHistBuckets = []int{1, 2, 4, 8, 16, 32}

// Metrics accumulates serving counters. All methods are safe for
// concurrent use; Snapshot is a consistent point-in-time copy.
type Metrics struct {
	mu sync.Mutex

	accepted     uint64
	completed    uint64
	rejectedBusy uint64
	rateLimited  uint64
	deadline     uint64
	failed       uint64
	conns        uint64

	batches    uint64
	images     uint64
	batchHist  []uint64 // len(batchHistBuckets)+1, last is overflow
	evalTime   time.Duration
	opsTotal   core.OpStats
	sessionsUp uint64
}

// NewMetrics builds an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{batchHist: make([]uint64, len(batchHistBuckets)+1)}
}

// Accepted counts one admitted request.
func (m *Metrics) Accepted() { m.bump(&m.accepted) }

// Completed counts one successfully answered request.
func (m *Metrics) Completed() { m.bump(&m.completed) }

// RejectedBusy counts one BUSY backpressure rejection.
func (m *Metrics) RejectedBusy() { m.bump(&m.rejectedBusy) }

// RateLimited counts one BUSY answered by the per-client token bucket.
func (m *Metrics) RateLimited() { m.bump(&m.rateLimited) }

// DeadlineExpired counts one request dropped at its deadline.
func (m *Metrics) DeadlineExpired() { m.bump(&m.deadline) }

// Failed counts one request answered with a non-deadline error.
func (m *Metrics) Failed() { m.bump(&m.failed) }

// ConnOpened counts one accepted connection.
func (m *Metrics) ConnOpened() { m.bump(&m.conns) }

// SessionOpened counts one newly built (not reattached) session.
func (m *Metrics) SessionOpened() { m.bump(&m.sessionsUp) }

func (m *Metrics) bump(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// recordBatch accounts one evaluated batch: its realized size, wall
// time, and the five-step operation counts it consumed.
func (m *Metrics) recordBatch(size int, dur time.Duration, ops core.OpStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.images += uint64(size)
	i := len(batchHistBuckets)
	for bi, ub := range batchHistBuckets {
		if size <= ub {
			i = bi
			break
		}
	}
	m.batchHist[i]++
	m.evalTime += dur
	m.opsTotal.Add(ops)
}

// BatchBucket is one batch-size histogram bucket in a snapshot.
type BatchBucket struct {
	// LE is the inclusive upper bound; 0 marks the open overflow bucket.
	LE    int    `json:"le,omitempty"`
	Count uint64 `json:"count"`
}

// Snapshot is the /metrics JSON document.
type Snapshot struct {
	Requests struct {
		Accepted        uint64 `json:"accepted"`
		Completed       uint64 `json:"completed"`
		RejectedBusy    uint64 `json:"rejected_busy"`
		RateLimited     uint64 `json:"rate_limited"`
		DeadlineExpired uint64 `json:"deadline_expired"`
		Failed          uint64 `json:"failed"`
	} `json:"requests"`
	Connections uint64 `json:"connections"`

	QueueDepth      int `json:"queue_depth"`
	InflightBatches int `json:"inflight_batches"`

	Batches       uint64        `json:"batches"`
	Images        uint64        `json:"images"`
	MeanBatchSize float64       `json:"mean_batch_size"`
	BatchSizeHist []BatchBucket `json:"batch_size_hist"`
	EvalTimeMS    float64       `json:"eval_time_ms"`

	Ops core.OpStats `json:"ops"`

	Sessions struct {
		Count     int    `json:"count"`
		Bytes     int64  `json:"bytes"`
		CapBytes  int64  `json:"cap_bytes"`
		Evictions uint64 `json:"evictions"`
		Opened    uint64 `json:"opened"`
		HotHits   uint64 `json:"hot_hits"`
		ColdLoads uint64 `json:"cold_loads"`
		Misses    uint64 `json:"misses"`
	} `json:"sessions"`

	// Store is the durable session tier (nil when running memory-only).
	Store *StoreSnapshot `json:"store,omitempty"`
}

// StoreSnapshot is the /metrics view of the durable tier: occupancy,
// lifetime put/load/spill/compaction/eviction counters, and what the
// last recovery found.
type StoreSnapshot struct {
	Entries   int   `json:"entries"`
	MemBytes  int64 `json:"mem_bytes"`
	WALBytes  int64 `json:"wal_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
	Segments  int   `json:"segments"`

	Puts        uint64 `json:"puts"`
	Loads       uint64 `json:"loads"`
	Spills      uint64 `json:"spills"`
	Compactions uint64 `json:"compactions"`
	Evictions   uint64 `json:"evictions"`

	RecoveredEntries    int   `json:"recovered_entries"`
	WALDroppedBytes     int64 `json:"wal_dropped_bytes"`
	QuarantinedSegments int   `json:"quarantined_segments"`
}

// Snapshot assembles the current metrics document. reg and b may be nil
// (their sections are zero).
func (m *Metrics) Snapshot(reg *Registry, b *Batcher) Snapshot {
	var s Snapshot
	m.mu.Lock()
	s.Requests.Accepted = m.accepted
	s.Requests.Completed = m.completed
	s.Requests.RejectedBusy = m.rejectedBusy
	s.Requests.RateLimited = m.rateLimited
	s.Requests.DeadlineExpired = m.deadline
	s.Requests.Failed = m.failed
	s.Connections = m.conns
	s.Batches = m.batches
	s.Images = m.images
	if m.batches > 0 {
		s.MeanBatchSize = float64(m.images) / float64(m.batches)
	}
	s.BatchSizeHist = make([]BatchBucket, 0, len(m.batchHist))
	for i, c := range m.batchHist {
		bb := BatchBucket{Count: c}
		if i < len(batchHistBuckets) {
			bb.LE = batchHistBuckets[i]
		}
		s.BatchSizeHist = append(s.BatchSizeHist, bb)
	}
	s.EvalTimeMS = float64(m.evalTime) / float64(time.Millisecond)
	s.Ops = m.opsTotal
	s.Sessions.Opened = m.sessionsUp
	m.mu.Unlock()

	if b != nil {
		s.QueueDepth, s.InflightBatches = b.QueueDepth()
	}
	if reg != nil {
		s.Sessions.Count, s.Sessions.Bytes, s.Sessions.CapBytes, s.Sessions.Evictions = reg.Stats()
		s.Sessions.HotHits, s.Sessions.ColdLoads, s.Sessions.Misses = reg.TierStats()
		if st, ok := reg.StoreStats(); ok {
			s.Store = &StoreSnapshot{
				Entries:             st.Entries,
				MemBytes:            st.MemBytes,
				WALBytes:            st.WALBytes,
				DiskBytes:           st.DiskBytes,
				Segments:            st.Segments,
				Puts:                st.Puts,
				Loads:               st.Loads,
				Spills:              st.Spills,
				Compactions:         st.Compactions,
				Evictions:           st.Evictions,
				RecoveredEntries:    st.RecoveredEntries,
				WALDroppedBytes:     st.WALDroppedBytes,
				QuarantinedSegments: st.QuarantinedSegments,
			}
		}
	}
	return s
}
