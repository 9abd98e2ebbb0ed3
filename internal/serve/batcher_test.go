package serve

import (
	"errors"
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
	sess := &Session{ID: "s"}
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
	sess := &Session{ID: "s"}
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
	if err := b.Submit(testRequest(&Session{ID: "s"}, done)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Millisecond)
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
	sess := &Session{ID: "s"}
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
	sess := &Session{ID: "s"}
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
	sess := &Session{ID: "s"}
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
	a, c := &Session{ID: "a"}, &Session{ID: "c"}
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
// on clk, failing with err when it is set.
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
	p.mu.Lock()
	d, err := p.d, p.err
	p.mu.Unlock()
	p.clk.Advance(d)
	outs, _ := p.batchRecorder.eval(s, q, ins)
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

// flushesAt submits req as a lone group, checks that it is still
// pending 1 ms before wait and dispatched at wait, and returns its
// reply. Timers fire inside Advance, so dispatch is synchronous.
func flushesAt(t *testing.T, b *Batcher, clk *ManualClock, req *Request, done chan error, wait time.Duration) error {
	t.Helper()
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	clk.Advance(wait - time.Millisecond)
	if pendingGroups(b) != 1 {
		t.Fatalf("lone group flushed before %v", wait)
	}
	clk.Advance(time.Millisecond)
	if pendingGroups(b) != 0 {
		t.Fatalf("lone group still pending at %v", wait)
	}
	return collect(t, done, 1)[0]
}

// TestBatcherWaitFollowsLastEval: a fresh batcher waits MaxWait; after
// a batch that evaluated in d < MaxWait the next lone request flushes at
// d, not at d − 1 ms; the most recent evaluation sets the wait, shorter
// or longer, up to MaxWait, the operator's upper bound.
func TestBatcherWaitFollowsLastEval(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := &Session{ID: "s"}
	done := make(chan error, 1)
	ms := time.Millisecond
	for i, step := range []struct{ wait, eval time.Duration }{
		{50 * ms, 10 * ms}, // nothing measured yet: MaxWait
		{10 * ms, 10 * ms},
		{10 * ms, 30 * ms},
		{30 * ms, 80 * ms}, // a longer evaluation lengthens the wait
		{50 * ms, 10 * ms}, // but never beyond MaxWait
	} {
		p.set(step.eval, nil)
		if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, step.wait); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestBatcherWaitIgnoresFailuresAndExpiries: a failed evaluation and a
// group whose requests all expired leave the next wait unchanged.
func TestBatcherWaitIgnoresFailuresAndExpiries(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := &Session{ID: "s"}
	done := make(chan error, 1)
	p.set(10*time.Millisecond, nil)
	if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// A failed evaluation of 5 ms is not a measurement.
	p.set(5*time.Millisecond, errors.New("injected failure"))
	var re *RequestError
	if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, 10*time.Millisecond); !errors.As(err, &re) || re.Code != CodeInternal {
		t.Fatalf("failed evaluation: got %v, want CodeInternal", err)
	}

	// An all-expired group evaluates nothing and measures nothing.
	p.set(10*time.Millisecond, nil)
	expiring := testRequest(sess, done)
	expiring.Deadline = p.clk.Now().Add(time.Millisecond)
	if err := flushesAt(t, b, p.clk, expiring, done, 10*time.Millisecond); !errors.As(err, &re) || re.Code != CodeDeadline {
		t.Fatalf("expired request: got %v, want CodeDeadline", err)
	}

	if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.batchSizes(); len(got) != 3 {
		t.Fatalf("batch sizes %v, want 3 evaluations (the expired group is not one)", got)
	}
}

// TestBatcherWaitPerModel: one model's measurement does not shorten
// another model's wait, on the same session or any other.
func TestBatcherWaitPerModel(t *testing.T) {
	b, p := newPlayedBatcher(100, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := &Session{ID: "s"}
	modelA, modelB := &qnn.QNetwork{Name: "a"}, &qnn.QNetwork{Name: "b"}
	done := make(chan error, 1)
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
		r := testRequest(sess, done)
		r.Model = step.model
		if err := flushesAt(t, b, p.clk, r, done, step.wait); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatcherFullBeforeShortenedDeadline: a shortened wait does not
// stop a group from flushing on MaxBatch first.
func TestBatcherFullBeforeShortenedDeadline(t *testing.T) {
	b, p := newPlayedBatcher(3, 50*time.Millisecond, nil)
	defer b.Drain()
	sess := &Session{ID: "s"}
	done := make(chan error, 3)
	p.set(10*time.Millisecond, nil)
	if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	// No clock advance: the flush must have come from batch-full.
	if pendingGroups(b) != 0 {
		t.Fatal("full group still pending")
	}
	for _, err := range collect(t, done, 3) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.batchSizes(); len(got) != 2 || got[1] != 3 {
		t.Fatalf("batch sizes %v, want [1 3]", got)
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
	for _, err := range collect(t, done, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	p.clk.mu.Lock()
	n := len(p.clk.timers)
	p.clk.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d timers armed for groups that flushed on arrival", n)
	}
}

// TestBatcherFlushCounters: every batch is counted under exactly one
// flush reason, group waits add up from first request to dispatch, and
// evaluation time is the played duration.
func TestBatcherFlushCounters(t *testing.T) {
	m := NewMetrics()
	b, p := newPlayedBatcher(2, 50*time.Millisecond, m)
	sess := &Session{ID: "s"}
	done := make(chan error, 2)
	p.set(10*time.Millisecond, nil)

	// Timer: a lone request waits 50 ms.
	if err := flushesAt(t, b, p.clk, testRequest(sess, done), done, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Full: two requests dispatch on arrival, having waited 0 ms.
	for i := 0; i < 2; i++ {
		if err := b.Submit(testRequest(sess, done)); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range collect(t, done, 2) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A group whose only request expired flushes on its timer but is
	// not a batch.
	expiring := testRequest(sess, done)
	expiring.Deadline = p.clk.Now().Add(time.Millisecond)
	if err := flushesAt(t, b, p.clk, expiring, done, 10*time.Millisecond); err == nil {
		t.Fatal("expired request evaluated")
	}
	// Drain: a lone request 5 ms into its 10 ms wait.
	if err := b.Submit(testRequest(sess, done)); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(5 * time.Millisecond)
	b.Drain()
	if err := collect(t, done, 1)[0]; err != nil {
		t.Fatal(err)
	}

	s := m.Snapshot(nil, nil)
	if s.Batches != 3 || s.Flushes.Full != 1 || s.Flushes.Timer != 1 || s.Flushes.Drain != 1 {
		t.Fatalf("batches %d, flushes %+v; want 3 batches, one of each reason", s.Batches, s.Flushes)
	}
	if s.Flushes.Full+s.Flushes.Timer+s.Flushes.Drain != s.Batches {
		t.Fatalf("flushes %+v do not sum to %d batches", s.Flushes, s.Batches)
	}
	if s.GroupWaitMS != 55 {
		t.Fatalf("group_wait_ms %v, want 55 (50 timer + 0 full + 5 drain)", s.GroupWaitMS)
	}
	if s.EvalTimeMS != 30 {
		t.Fatalf("eval_time_ms %v, want 30 (three played 10 ms evaluations)", s.EvalTimeMS)
	}
}
