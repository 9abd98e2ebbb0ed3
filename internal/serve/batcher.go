package serve

import (
	"fmt"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
)

// Request is one admitted inference request flowing through the
// batcher.
type Request struct {
	ID    uint64
	Sess  *Session
	Model *qnn.QNetwork
	In    *core.EncryptedInput

	// Deadline, when non-zero, expires the request: if the batch
	// containing it starts evaluation after this instant, the request
	// is answered with CodeDeadline instead of being evaluated.
	Deadline time.Time

	// Done receives the outcome exactly once, from an executor
	// goroutine (or inline on admission failure cleanup paths). It must
	// not block for long: it runs on the serving hot path.
	Done func(*core.EncryptedLogits, error)
}

// Typed admission failures.
var (
	// ErrBusy is the backpressure signal: the admission queue is full.
	ErrBusy = &RequestError{Code: CodeBusy, Msg: "admission queue full"}
	// ErrDraining rejects new work during graceful shutdown.
	ErrDraining = &RequestError{Code: CodeDraining, Msg: "server draining"}
)

// BatcherConfig tunes the dynamic batcher.
type BatcherConfig struct {
	// MaxBatch flushes a group as soon as it holds this many requests.
	MaxBatch int
	// MaxWait flushes a non-empty group this long after its first
	// request arrived (the straggler bound).
	MaxWait time.Duration
	// MaxQueue bounds admitted-but-unfinished requests; admission
	// beyond it returns ErrBusy.
	MaxQueue int
	// Executors is the number of batch-evaluation workers.
	Executors int
	// Clock defaults to the wall clock.
	Clock Clock
	// Eval overrides batch evaluation; nil means
	// Session.Eng.EvaluateEncryptedBatch under the session lock. Tests
	// inject a recorder here to exercise flush policy without FHE cost.
	Eval func(s *Session, q *qnn.QNetwork, ins []*core.EncryptedInput) ([]*core.EncryptedLogits, error)
}

func (c *BatcherConfig) withDefaults() BatcherConfig {
	out := *c
	if out.MaxBatch <= 0 {
		out.MaxBatch = 16
	}
	if out.MaxWait <= 0 {
		out.MaxWait = 20 * time.Millisecond
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 256
	}
	if out.Executors <= 0 {
		out.Executors = 2
	}
	if out.Clock == nil {
		out.Clock = RealClock()
	}
	return out
}

// batchKey groups coalescible requests: same session (hence same keys)
// and same model. Only such requests may share an
// EvaluateEncryptedBatch call.
type batchKey struct {
	session string
	model   string
}

// group is one forming batch.
type group struct {
	key   batchKey
	sess  *Session
	model *qnn.QNetwork
	reqs  []*Request
	timer ClockTimer
}

// Batcher coalesces admitted requests into per-(session, model) groups
// and evaluates them on a fixed executor pool. Flush policy: a group is
// dispatched when it reaches MaxBatch requests or when its oldest
// request has waited MaxWait, whichever comes first.
type Batcher struct {
	cfg     BatcherConfig
	metrics *Metrics

	mu       sync.Mutex
	pending  map[batchKey]*group
	queued   int // admitted, not yet completed
	inflight int // batches currently evaluating
	draining bool

	execC chan *group
	wg    sync.WaitGroup // executor goroutines
	reqWG sync.WaitGroup // admitted requests, for drain
}

// NewBatcher starts the executor pool. Close with Drain.
func NewBatcher(cfg BatcherConfig, m *Metrics) *Batcher {
	c := cfg.withDefaults()
	b := &Batcher{
		cfg:     c,
		metrics: m,
		pending: make(map[batchKey]*group),
		// One group holds ≥1 request and at most MaxQueue requests are
		// admitted, so MaxQueue slots guarantee dispatch never blocks.
		execC: make(chan *group, c.MaxQueue),
	}
	for i := 0; i < c.Executors; i++ {
		b.wg.Add(1)
		go b.runExecutor()
	}
	return b
}

// Submit admits one request. On a nil error the batcher owns req and
// will call req.Done exactly once; ErrBusy and ErrDraining reject it
// without side effects (the caller replies).
func (b *Batcher) Submit(req *Request) error {
	if req.Sess == nil || req.Model == nil || req.In == nil || req.Done == nil {
		return fmt.Errorf("serve: incomplete request")
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return ErrDraining
	}
	if b.queued >= b.cfg.MaxQueue {
		b.mu.Unlock()
		return ErrBusy
	}
	b.queued++
	b.reqWG.Add(1)

	key := batchKey{session: req.Sess.ID, model: req.Model.Name}
	g, ok := b.pending[key]
	if !ok {
		g = &group{key: key, sess: req.Sess, model: req.Model}
		b.pending[key] = g
		// Arm the straggler deadline for the group's first request. The
		// callback re-checks identity: the group may have flushed on
		// MaxBatch (and a new group formed under the same key) by the
		// time it fires.
		g.timer = b.cfg.Clock.AfterFunc(b.cfg.MaxWait, func() {
			b.mu.Lock()
			if b.pending[key] == g {
				b.flushLocked(g)
			}
			b.mu.Unlock()
		})
	}
	g.reqs = append(g.reqs, req)
	if len(g.reqs) >= b.cfg.MaxBatch {
		b.flushLocked(g)
	}
	b.mu.Unlock()
	return nil
}

// flushLocked dispatches g to the executors. Callers hold b.mu.
func (b *Batcher) flushLocked(g *group) {
	delete(b.pending, g.key)
	if g.timer != nil {
		g.timer.Stop()
	}
	b.execC <- g //lint:holdok execC capacity covers every admitted request, so the send never blocks
}

// runExecutor evaluates dispatched groups. Per-session serialization
// happens on Session.Mu: two groups of the same session queue behind
// each other, while groups of distinct sessions run concurrently up to
// the executor count.
func (b *Batcher) runExecutor() {
	defer b.wg.Done()
	for g := range b.execC {
		b.mu.Lock()
		b.inflight++
		b.mu.Unlock()

		now := b.cfg.Clock.Now()
		live := g.reqs[:0:0]
		for _, r := range g.reqs {
			if !r.Deadline.IsZero() && now.After(r.Deadline) {
				b.finish(r, nil, &RequestError{Code: CodeDeadline, Msg: "deadline expired before evaluation"})
				continue
			}
			live = append(live, r)
		}
		if len(live) > 0 {
			ins := make([]*core.EncryptedInput, len(live))
			for i, r := range live {
				ins[i] = r.In
			}
			g.sess.Mu.Lock()
			var statsBefore core.OpStats
			if g.sess.Eng != nil {
				statsBefore = g.sess.Eng.Stats
			}
			t0 := time.Now()
			var outs []*core.EncryptedLogits
			var err error
			if b.cfg.Eval != nil {
				outs, err = b.cfg.Eval(g.sess, g.model, ins)
			} else {
				//lint:holdok the session lock IS the evaluation critical section: one batch per session at a time, by design
				outs, err = g.sess.Eng.EvaluateEncryptedBatch(g.model, ins)
			}
			dur := time.Since(t0)
			statsAfter := statsBefore
			if g.sess.Eng != nil {
				statsAfter = g.sess.Eng.Stats
			}
			g.sess.Mu.Unlock()
			if err == nil && len(outs) != len(live) {
				err = fmt.Errorf("evaluation returned %d results for %d inputs", len(outs), len(live))
			}
			// Account the batch before answering it, so a client holding
			// its reply already finds the batch in /metrics.
			if b.metrics != nil {
				b.metrics.recordBatch(len(live), dur, statsAfter.Sub(statsBefore))
			}
			if err != nil {
				for _, r := range live {
					b.finish(r, nil, &RequestError{Code: CodeInternal, Msg: err.Error()})
				}
			} else {
				for i, r := range live {
					b.finish(r, outs[i], nil)
				}
			}
		}

		b.mu.Lock()
		b.inflight--
		b.mu.Unlock()
	}
}

// finish replies to one request and returns its admission slot.
func (b *Batcher) finish(r *Request, out *core.EncryptedLogits, err error) {
	r.Done(out, err)
	b.mu.Lock()
	b.queued--
	b.mu.Unlock()
	b.reqWG.Done()
}

// Drain stops admission (Submit returns ErrDraining), flushes every
// forming group immediately, waits for all admitted requests to be
// answered, and stops the executors.
func (b *Batcher) Drain() {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		b.reqWG.Wait()
		return
	}
	b.draining = true
	for _, g := range b.pending {
		b.flushLocked(g)
	}
	b.mu.Unlock()

	b.reqWG.Wait()
	close(b.execC)
	b.wg.Wait()
}

// QueueDepth returns (admitted-unfinished requests, in-flight batches).
func (b *Batcher) QueueDepth() (queued, inflight int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued, b.inflight
}
