package serve

import (
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/store"
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
	flushes    [4]uint64 // by flushReason
	groupWait  time.Duration
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

// RateLimited counts one BUSY answered by a session's token bucket.
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

// recordBatch accounts one evaluated batch: its realized size,
// evaluation time, the five-step operation counts it consumed, what
// flushed its group and how long the group waited before dispatch.
func (m *Metrics) recordBatch(size int, dur time.Duration, ops core.OpStats, why flushReason, wait time.Duration) {
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
	m.flushes[why]++
	m.groupWait += wait
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

	// Flushes counts the batches by what dispatched their group:
	// reaching MaxBatch, the flush deadline, drain, or arrival on a
	// session that showed no company (alone). The four sum to Batches
	// (a group whose requests all expired is not a batch).
	Flushes struct {
		Full  uint64 `json:"full"`
		Timer uint64 `json:"timer"`
		Drain uint64 `json:"drain"`
		Alone uint64 `json:"alone"`
	} `json:"flushes"`
	// GroupWaitMS sums, over the batches, the time from the group's
	// first request to its dispatch: the latency spent forming batches.
	GroupWaitMS float64 `json:"group_wait_ms"`

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
	Store *store.Stats `json:"store,omitempty"`
}

// Add sums src's counters into s and recomputes the derived mean batch
// size: the cluster document is the nodes' documents added up. Every
// counter of the struct above belongs here, so the router cannot forget
// one. Histograms come from the same server code and have one shape; a
// mismatch (mixed versions) keeps s's shape and drops src's buckets.
func (s *Snapshot) Add(src *Snapshot) {
	s.Requests.Accepted += src.Requests.Accepted
	s.Requests.Completed += src.Requests.Completed
	s.Requests.RejectedBusy += src.Requests.RejectedBusy
	s.Requests.RateLimited += src.Requests.RateLimited
	s.Requests.DeadlineExpired += src.Requests.DeadlineExpired
	s.Requests.Failed += src.Requests.Failed
	s.Connections += src.Connections
	s.QueueDepth += src.QueueDepth
	s.InflightBatches += src.InflightBatches
	s.Batches += src.Batches
	s.Images += src.Images
	if s.Batches > 0 {
		s.MeanBatchSize = float64(s.Images) / float64(s.Batches)
	}
	if len(s.BatchSizeHist) == 0 {
		s.BatchSizeHist = append([]BatchBucket(nil), src.BatchSizeHist...)
	} else if sameBuckets(s.BatchSizeHist, src.BatchSizeHist) {
		for i := range s.BatchSizeHist {
			s.BatchSizeHist[i].Count += src.BatchSizeHist[i].Count
		}
	}
	s.EvalTimeMS += src.EvalTimeMS
	s.Flushes.Full += src.Flushes.Full
	s.Flushes.Timer += src.Flushes.Timer
	s.Flushes.Drain += src.Flushes.Drain
	s.Flushes.Alone += src.Flushes.Alone
	s.GroupWaitMS += src.GroupWaitMS
	s.Ops.Add(src.Ops)
	s.Sessions.Count += src.Sessions.Count
	s.Sessions.Bytes += src.Sessions.Bytes
	s.Sessions.CapBytes += src.Sessions.CapBytes
	s.Sessions.Evictions += src.Sessions.Evictions
	s.Sessions.Opened += src.Sessions.Opened
	s.Sessions.HotHits += src.Sessions.HotHits
	s.Sessions.ColdLoads += src.Sessions.ColdLoads
	s.Sessions.Misses += src.Sessions.Misses
	if src.Store != nil {
		if s.Store == nil {
			s.Store = &store.Stats{}
		}
		s.Store.Add(*src.Store)
	}
}

func sameBuckets(a, b []BatchBucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LE != b[i].LE {
			return false
		}
	}
	return true
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
	s.Flushes.Full = m.flushes[flushFull]
	s.Flushes.Timer = m.flushes[flushTimer]
	s.Flushes.Drain = m.flushes[flushDrain]
	s.Flushes.Alone = m.flushes[flushAlone]
	s.GroupWaitMS = float64(m.groupWait) / float64(time.Millisecond)
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
			s.Store = &st
		}
	}
	return s
}
