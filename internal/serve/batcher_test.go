package serve

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
)

func newFakeClock() *ManualClock { return NewManualClock() }

// batchRecorder is an injected evaluator that records realized batch
// sizes and optionally blocks until released.
type batchRecorder struct {
	mu    sync.Mutex
	sizes []int
	gate  chan struct{} // nil = don't block
}

func (r *batchRecorder) eval(_ *Session, _ *qnn.QNetwork, ins []*core.EncryptedInput) ([]*core.EncryptedLogits, error) {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	r.sizes = append(r.sizes, len(ins))
	r.mu.Unlock()
	return make([]*core.EncryptedLogits, len(ins)), nil
}

func (r *batchRecorder) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.sizes...)
}

var batcherTestModel = &qnn.QNetwork{Name: "m"}

// companySession is a session whose last group held two requests: its
// next group waits for company instead of being dispatched on arrival.
func companySession(id string) *Session { return &Session{ID: id, lastGroup: 2} }

func testRequest(sess *Session, done chan error) *Request {
	return &Request{
		Sess:  sess,
		Model: batcherTestModel,
		In:    &core.EncryptedInput{},
		Done:  func(_ *core.EncryptedLogits, err error) { done <- err },
	}
}

func collect(t *testing.T, done chan error, n int) []error {
	t.Helper()
	errs := make([]error, 0, n)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			errs = append(errs, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for reply %d/%d", i+1, n)
		}
	}
	return errs
}

// TestBatcherFlushOnFull: MaxBatch requests flush immediately, without
// waiting for the deadline timer.
func TestBatcherFlushOnFull(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: time.Hour, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	// No clock advance: the flush must have come from batch-full.
	for _, err := range collect(t, done, 4) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.batchSizes(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("batch sizes %v, want [4]", got)
	}
}

// TestBatcherFlushOnDeadline: a partial batch flushes when MaxWait
// elapses, and not before.
func TestBatcherFlushOnDeadline(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: 50 * time.Millisecond, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(49 * time.Millisecond)
	if got := rec.batchSizes(); len(got) != 0 {
		t.Fatalf("flushed before MaxWait: %v", got)
	}
	clk.Advance(1 * time.Millisecond)
	for _, err := range collect(t, done, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.batchSizes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("batch sizes %v, want [2]", got)
	}
}

// TestBatcherStraggler: a single request still completes after MaxWait
// — nobody waits forever for company.
func TestBatcherStraggler(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: 20 * time.Millisecond, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	done := make(chan error, 1)
	if err := b.Submit(testRequest(companySession("s"), done)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(19 * time.Millisecond)
	if got := rec.batchSizes(); len(got) != 0 {
		t.Fatalf("flushed before MaxWait: %v", got)
	}
	clk.Advance(time.Millisecond)
	if err := collect(t, done, 1)[0]; err != nil {
		t.Fatal(err)
	}
	if got := rec.batchSizes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("batch sizes %v, want [1]", got)
	}
}

// TestBatcherQueueFullBusy: admission beyond MaxQueue returns ErrBusy;
// after the queue empties, admission succeeds again.
func TestBatcherQueueFullBusy(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: time.Minute, MaxQueue: 2, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 3)
	for i := 0; i < 2; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Submit(testRequest(sess, done)); err != ErrBusy {
		t.Fatalf("third submit: got %v, want ErrBusy", err)
	}
	clk.Advance(time.Minute)
	for _, err := range collect(t, done, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Submit(testRequest(sess, done)); err != nil {
		t.Fatalf("submit after flush: %v", err)
	}
	clk.Advance(time.Minute)
	if err := collect(t, done, 1)[0]; err != nil {
		t.Fatal(err)
	}
}

// TestBatcherRequestDeadline: a request whose deadline passes while it
// waits is answered with CodeDeadline and never evaluated.
func TestBatcherRequestDeadline(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: 100 * time.Millisecond, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	sess := companySession("s")
	expired := make(chan error, 1)
	alive := make(chan error, 1)
	r1 := testRequest(sess, expired)
	r1.Deadline = clk.Now().Add(10 * time.Millisecond) // dies before the 100ms flush
	if err := b.Submit(r1); err != nil {
		t.Fatal(err)
	}
	r2 := testRequest(sess, alive)
	r2.Deadline = clk.Now().Add(time.Hour)
	if err := b.Submit(r2); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	err := collect(t, expired, 1)[0]
	var re *RequestError
	if !errors.As(err, &re) || re.Code != CodeDeadline {
		t.Fatalf("expired request: got %v, want CodeDeadline", err)
	}
	if err := collect(t, alive, 1)[0]; err != nil {
		t.Fatalf("live request: %v", err)
	}
	if got := rec.batchSizes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("batch sizes %v, want [1] (expired request must not evaluate)", got)
	}
}

// TestBatcherDrain: Drain flushes forming groups immediately, answers
// every admitted request, and rejects later submissions.
func TestBatcherDrain(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: time.Hour, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	sess := companySession("s")
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	b.Drain() // no clock advance: drain itself must flush
	for _, err := range collect(t, done, 3) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.batchSizes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("batch sizes %v, want [3]", got)
	}
	if err := b.Submit(testRequest(sess, done)); err != ErrDraining {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}
}

// TestBatcherPerSessionGrouping: requests of different sessions never
// share a batch.
func TestBatcherPerSessionGrouping(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: 10 * time.Millisecond, MaxQueue: 16, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	done := make(chan error, 4)
	a, c := companySession("a"), companySession("c")
	for i := 0; i < 2; i++ {
		if err := b.Submit(testRequest(a, done)); err != nil {
			t.Fatal(err)
		}
		if err := b.Submit(testRequest(c, done)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Millisecond)
	for _, err := range collect(t, done, 4) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sizes := rec.batchSizes()
	sort.Ints(sizes)
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("batch sizes %v, want [2 2] (one batch per session)", sizes)
	}
}

// playedEval is a batchRecorder that plays an evaluation of duration d
// on clk, failing with err when it is set. A gate holds the batch before
// its clock time passes.
type playedEval struct {
	batchRecorder
	clk *ManualClock
	d   time.Duration
	err error
}

func (p *playedEval) set(d time.Duration, err error) {
	p.mu.Lock()
	p.d, p.err = d, err
	p.mu.Unlock()
}

func (p *playedEval) eval(s *Session, q *qnn.QNetwork, ins []*core.EncryptedInput) ([]*core.EncryptedLogits, error) {
	outs, _ := p.batchRecorder.eval(s, q, ins)
	p.mu.Lock()
	d, err := p.d, p.err
	p.mu.Unlock()
	p.clk.Advance(d)
	if err != nil {
		return nil, err
	}
	return outs, nil
}

func newPlayedBatcher(maxBatch int, maxWait time.Duration, m *Metrics) (*Batcher, *playedEval) {
	p := &playedEval{clk: newFakeClock()}
	return NewBatcher(BatcherConfig{MaxBatch: maxBatch, MaxWait: maxWait, MaxQueue: 16, Clock: p.clk, Eval: p.eval}, m), p
}

func pendingGroups(b *Batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

func armedTimers(clk *ManualClock) int {
	clk.mu.Lock()
	defer clk.mu.Unlock()
	return len(clk.timers)
}

// flushesAt submits reqs as one new group, checks that it is still
// pending 1 ms before wait and dispatched at wait, and returns the
// replies. Timers fire inside Advance, so dispatch is synchronous.
func flushesAt(t *testing.T, b *Batcher, clk *ManualClock, done chan error, wait time.Duration, reqs ...*Request) []error {
	t.Helper()
	for _, req := range reqs {
		if err := b.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(wait - time.Millisecond)
	if pendingGroups(b) != 1 {
		t.Fatalf("group flushed before %v", wait)
	}
	clk.Advance(time.Millisecond)
	if pendingGroups(b) != 0 {
		t.Fatalf("group still pending at %v", wait)
	}
	return collect(t, done, len(reqs))
}

// pair is two requests of sess: a group holding both keeps its session
// showing company, so the session's next group waits too.
func pair(sess *Session, done chan error) []*Request {
	return []*Request{testRequest(sess, done), testRequest(sess, done)}
}

func noErrors(t *testing.T, errs []error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatcherWaitFollowsLastEval: a fresh batcher waits MaxWait; after
// a batch that evaluated in d < MaxWait the next group flushes at d,
// not at d − 1 ms; the most recent evaluation sets the wait, shorter or
// longer, up to MaxWait, the operator's upper bound.
func TestBatcherWaitFollowsLastEval(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 2)
	ms := time.Millisecond
	for i, step := range []struct{ wait, eval time.Duration }{
		{50 * ms, 10 * ms}, // nothing measured yet: MaxWait
		{10 * ms, 10 * ms},
		{10 * ms, 30 * ms},
		{30 * ms, 80 * ms}, // a longer evaluation lengthens the wait
		{50 * ms, 10 * ms}, // but never beyond MaxWait
	} {
		p.set(step.eval, nil)
		for _, err := range flushesAt(t, b, p.clk, done, step.wait, pair(sess, done)...) {
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// TestBatcherWaitIgnoresFailuresAndExpiries: a failed evaluation and a
// group whose requests all expired leave the next wait unchanged.
func TestBatcherWaitIgnoresFailuresAndExpiries(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 2)
	p.set(10*time.Millisecond, nil)
	noErrors(t, flushesAt(t, b, p.clk, done, 50*time.Millisecond, pair(sess, done)...))

	// A failed evaluation of 5 ms is not a measurement.
	p.set(5*time.Millisecond, errors.New("injected failure"))
	var re *RequestError
	for _, err := range flushesAt(t, b, p.clk, done, 10*time.Millisecond, pair(sess, done)...) {
		if !errors.As(err, &re) || re.Code != CodeInternal {
			t.Fatalf("failed evaluation: got %v, want CodeInternal", err)
		}
	}

	// An all-expired group evaluates nothing and measures nothing.
	p.set(10*time.Millisecond, nil)
	expiring := pair(sess, done)
	for _, r := range expiring {
		r.Deadline = p.clk.Now().Add(time.Millisecond)
	}
	for _, err := range flushesAt(t, b, p.clk, done, 10*time.Millisecond, expiring...) {
		if !errors.As(err, &re) || re.Code != CodeDeadline {
			t.Fatalf("expired request: got %v, want CodeDeadline", err)
		}
	}

	noErrors(t, flushesAt(t, b, p.clk, done, 10*time.Millisecond, pair(sess, done)...))
	if got := p.batchSizes(); len(got) != 3 {
		t.Fatalf("batch sizes %v, want 3 evaluations (the expired group is not one)", got)
	}
}

// TestBatcherWaitPerModel: one model's measurement does not shorten
// another model's wait, on the same session or any other.
func TestBatcherWaitPerModel(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := companySession("s")
	modelA, modelB := &qnn.QNetwork{Name: "a"}, &qnn.QNetwork{Name: "b"}
	done := make(chan error, 2)
	p.set(10*time.Millisecond, nil)
	for _, step := range []struct {
		model *qnn.QNetwork
		wait  time.Duration
	}{
		{modelA, 50 * time.Millisecond},
		{modelB, 50 * time.Millisecond},
		{modelA, 10 * time.Millisecond},
		{modelB, 10 * time.Millisecond},
	} {
		reqs := pair(sess, done)
		for _, r := range reqs {
			r.Model = step.model
		}
		noErrors(t, flushesAt(t, b, p.clk, done, step.wait, reqs...))
	}
}

// TestBatcherFullBeforeShortenedDeadline: a shortened wait does not
// stop a group from flushing on MaxBatch first.
func TestBatcherFullBeforeShortenedDeadline(t *testing.T) {
	b, p := newPlayedBatcher(3, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := companySession("s")
	done := make(chan error, 3)
	p.set(10*time.Millisecond, nil)
	noErrors(t, flushesAt(t, b, p.clk, done, 50*time.Millisecond, pair(sess, done)...))
	for i := 0; i < 3; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	// No clock advance: the flush must have come from batch-full.
	if pendingGroups(b) != 0 {
		t.Fatal("full group still pending")
	}
	noErrors(t, collect(t, done, 3))
	if got := p.batchSizes(); len(got) != 2 || got[1] != 3 {
		t.Fatalf("batch sizes %v, want [2 3]", got)
	}
}

// TestBatcherNoTimerOnArrivalFlush: a group that flushes on arrival
// (MaxBatch 1) never arms a flush timer.
func TestBatcherNoTimerOnArrivalFlush(t *testing.T) {
	b, p := newPlayedBatcher(1, time.Hour, nil)
	defer b.Drain()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		if err := b.Submit(testRequest(&Session{ID: "s"}, done)); err != nil {
			t.Fatal(err)
		}
	}
	noErrors(t, collect(t, done, 2))
	if n := armedTimers(p.clk); n != 0 {
		t.Fatalf("%d timers armed for groups that flushed on arrival", n)
	}
}

// TestBatcherCompanyRule: a new group waits for company only when its
// session has shown that company comes, by another request unanswered
// or a last group of more than one. Each case plays a history on one
// session, then probes with a lone request: dispatched on arrival (wait
// 0, no timer armed) or flushed by its timer at wait. One executor runs
// the batches in dispatch order; the gate holds the first batch, so the
// history's later requests arrive while it is unanswered.
func TestBatcherCompanyRule(t *testing.T) {
	const (
		maxBatch = 4
		maxWait  = 50 * time.Millisecond
		evalTime = 10 * time.Millisecond
	)
	type harness struct {
		b         *Batcher
		p         *playedEval
		sess      *Session
		done      chan error
		collected int
		released  bool
	}
	submit := func(t *testing.T, h *harness, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := h.b.Submit(testRequest(h.sess, h.done)); err != nil {
				t.Fatal(err)
			}
		}
	}
	replies := func(t *testing.T, h *harness, n int) {
		t.Helper()
		noErrors(t, collect(t, h.done, n))
		h.collected += n
	}
	release := func(h *harness) {
		if !h.released {
			close(h.p.gate)
			h.released = true
		}
	}
	for _, tc := range []struct {
		name    string
		history func(t *testing.T, h *harness)
		wait    time.Duration // the probe's; 0 = dispatched on arrival
		sizes   []int         // every batch, in dispatch order
		alone   uint64        // batches dispatched on arrival
		waitMS  float64       // group wait summed over the batches
	}{
		{"fresh idle session", nil, 0, []int{1}, 1, 0},
		{"another request unanswered", func(t *testing.T, h *harness) {
			submit(t, h, 1) // held at the gate until the probe has flushed
		}, maxWait, []int{1, 1}, 1, 50},
		{"after a multi-request batch", func(t *testing.T, h *harness) {
			submit(t, h, 1+maxBatch) // one alone, then a full group behind it
			release(h)
			replies(t, h, 1+maxBatch)
		}, evalTime, []int{1, maxBatch, 1}, 1, 10},
		{"after a lone group timed out", func(t *testing.T, h *harness) {
			submit(t, h, 2)
			release(h)
			replies(t, h, 1)
			h.p.clk.Advance(maxWait) // 10 ms already played: the second waited 60 ms
			replies(t, h, 1)
		}, 0, []int{1, 1, 1}, 2, 60},
		{"fresh burst of MaxBatch", func(t *testing.T, h *harness) {
			submit(t, h, maxBatch)
			release(h)
			replies(t, h, 1)
			h.p.clk.Advance(maxWait)
			replies(t, h, maxBatch-1)
		}, evalTime, []int{1, maxBatch - 1, 1}, 1, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			p := &playedEval{clk: newFakeClock(), d: evalTime}
			p.gate = make(chan struct{})
			b := NewBatcher(BatcherConfig{MaxBatch: maxBatch, MaxWait: maxWait, MaxQueue: 16, Executors: 1, Clock: p.clk, Eval: p.eval}, m)
			defer b.Drain()
			h := &harness{b: b, p: p, sess: &Session{ID: "s"}, done: make(chan error, 16)}
			defer release(h)
			if tc.history != nil {
				tc.history(t, h)
			}

			timers := armedTimers(p.clk)
			submit(t, h, 1)
			if tc.wait == 0 {
				if pendingGroups(b) != 0 || armedTimers(p.clk) != timers {
					t.Fatal("probe not dispatched on arrival")
				}
			} else {
				p.clk.Advance(tc.wait - time.Millisecond)
				if pendingGroups(b) != 1 {
					t.Fatalf("probe flushed before %v", tc.wait)
				}
				p.clk.Advance(time.Millisecond)
				if pendingGroups(b) != 0 {
					t.Fatalf("probe still pending at %v", tc.wait)
				}
			}
			release(h)
			total := 0
			for _, n := range tc.sizes {
				total += n
			}
			replies(t, h, total-h.collected)

			if got := p.batchSizes(); !slices.Equal(got, tc.sizes) {
				t.Fatalf("batch sizes %v, want %v", got, tc.sizes)
			}
			s := m.Snapshot(nil, nil)
			f := s.Flushes
			if f.Alone != tc.alone || f.Full+f.Timer+f.Drain+f.Alone != s.Batches {
				t.Fatalf("flushes %+v over %d batches, want %d alone and the four summing to batches", f, s.Batches, tc.alone)
			}
			if s.GroupWaitMS != tc.waitMS {
				t.Fatalf("group_wait_ms %v, want %v", s.GroupWaitMS, tc.waitMS)
			}
		})
	}
}

// TestBatcherSubmitFromReply: a client that resubmits the moment it
// reads its reply finds its admission slot free, even with a queue of
// one.
func TestBatcherSubmitFromReply(t *testing.T) {
	clk := newFakeClock()
	rec := &batchRecorder{}
	b := NewBatcher(BatcherConfig{MaxBatch: 100, MaxWait: time.Hour, MaxQueue: 1, Clock: clk, Eval: rec.eval}, nil)
	defer b.Drain()
	sess := &Session{ID: "s"}
	done := make(chan error, 2)
	resubmitted := make(chan error, 1)
	first := testRequest(sess, done)
	first.Done = func(_ *core.EncryptedLogits, err error) {
		done <- err
		resubmitted <- b.Submit(testRequest(sess, done))
	}
	if err := b.Submit(first); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	noErrors(t, collect(t, done, 1))
	if err := <-resubmitted; err != nil {
		t.Fatalf("submit from inside a reply: %v", err)
	}
	clk.Advance(time.Hour)
	noErrors(t, collect(t, done, 1))
}

// TestBatcherFlushCounters: every batch is counted under exactly one
// flush reason, group waits add up from first request to dispatch, and
// evaluation time is the played duration.
func TestBatcherFlushCounters(t *testing.T) {
	m := NewMetrics()
	b, p := newPlayedBatcher(3, 50*time.Millisecond, m)
	sess := companySession("s")
	done := make(chan error, 3)
	p.set(10*time.Millisecond, nil)

	// Timer: a pair waits 50 ms.
	noErrors(t, flushesAt(t, b, p.clk, done, 50*time.Millisecond, pair(sess, done)...))
	// Full: three requests dispatch on arrival, having waited 0 ms.
	for i := 0; i < 3; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	noErrors(t, collect(t, done, 3))
	// A group whose requests expired flushes on its timer but is not a
	// batch.
	expiring := pair(sess, done)
	for _, r := range expiring {
		r.Deadline = p.clk.Now().Add(time.Millisecond)
	}
	for _, err := range flushesAt(t, b, p.clk, done, 10*time.Millisecond, expiring...) {
		if err == nil {
			t.Fatal("expired request evaluated")
		}
	}
	// Alone: a fresh session's lone request dispatches on arrival.
	if err := b.Submit(testRequest(&Session{ID: "u"}, done)); err != nil {
		t.Fatal(err)
	}
	noErrors(t, collect(t, done, 1))
	// Drain: a pair 5 ms into its 10 ms wait.
	for _, r := range pair(sess, done) {
		if err := b.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	p.clk.Advance(5 * time.Millisecond)
	b.Drain()
	noErrors(t, collect(t, done, 2))

	s := m.Snapshot(nil, nil)
	f := s.Flushes
	if s.Batches != 4 || f.Full != 1 || f.Timer != 1 || f.Drain != 1 || f.Alone != 1 {
		t.Fatalf("batches %d, flushes %+v; want 4 batches, one of each reason", s.Batches, f)
	}
	if f.Full+f.Timer+f.Drain+f.Alone != s.Batches {
		t.Fatalf("flushes %+v do not sum to %d batches", f, s.Batches)
	}
	if s.GroupWaitMS != 55 {
		t.Fatalf("group_wait_ms %v, want 55 (50 timer + 0 full + 0 alone + 5 drain)", s.GroupWaitMS)
	}
	if s.EvalTimeMS != 40 {
		t.Fatalf("eval_time_ms %v, want 40 (four played 10 ms evaluations)", s.EvalTimeMS)
	}
}
