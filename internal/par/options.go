package par

import "sync"

// Options tunes fan-out for operator-level loops. The package-level
// helpers (ForN, Chunks, ForWork) carry grain floors sized for ring
// work: thousands of cheap, uniform iterations. Operator-level callers
// sit at the other extreme — a handful of very heavy items (output
// batches of a convolution, BSGS giant steps, images of a batch) —
// where those floors would always select the serial path. Options makes
// the floor explicit so such callers can opt into fan-out at small n.
type Options struct {
	// MinGrain is the minimum number of iterations each worker must
	// receive before fanning out. Zero applies the ForN default
	// (forNGrain); operator-level callers with few, heavy items set 1.
	MinGrain int

	// ItemCost, when non-zero, is the approximate per-iteration
	// operation count; the worker count is then additionally capped so
	// each worker receives at least minWorkPerWorker cost units, exactly
	// as in ForWork. Zero disables the cost cap (the caller asserts the
	// items are heavy enough).
	ItemCost int

	// MaxWorkers caps the fan-out below GOMAXPROCS. Zero means no extra
	// cap.
	MaxWorkers int
}

// Workers reports how many workers ForEach(n, o, ·) will use. It is at
// least 1 and at most min(GOMAXPROCS, NumCPU, MaxWorkers,
// n/max(1, MinGrain)), further capped by the ItemCost work floor when
// set. The NumCPU cap means a GOMAXPROCS raised past the hardware (the
// p-sweep benchmarks) degrades to the usable parallelism instead of
// time-slicing extra goroutines over the same cores.
func (o Options) Workers(n int) int {
	if n <= 0 {
		return 1
	}
	workers := usableWorkers()
	if o.MaxWorkers > 0 && workers > o.MaxWorkers {
		workers = o.MaxWorkers
	}
	grain := o.MinGrain
	if grain <= 0 {
		grain = forNGrain
	}
	if max := n / grain; workers > max {
		workers = max
	}
	if o.ItemCost > 0 {
		if max := n * o.ItemCost / minWorkPerWorker; workers > max {
			workers = max
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Partition returns the contiguous index range [start, end) that worker
// w owns when ForEach splits n iterations across `workers` goroutines.
// The split is fixed (independent of scheduling): the first n%workers
// workers receive ⌈n/workers⌉ iterations, the rest ⌊n/workers⌋. Exposed
// so tests can pin the partitioning and callers can reason about which
// scratch lane touches which output.
func Partition(n, workers, w int) (start, end int) {
	if workers <= 0 {
		workers = 1
	}
	q, r := n/workers, n%workers
	if w < r {
		start = w * (q + 1)
		end = start + q + 1
	} else {
		start = r*(q+1) + (w-r)*q
		end = start + q
	}
	if end > n {
		end = n
	}
	return start, end
}

// ForEach runs f(w, i) for every i in [0, n), where w ∈ [0, workers) is
// the stable worker slot executing the iteration — callers index
// per-worker scratch (evaluator clones, staging buffers) by w. Work is
// split by the fixed Partition blocks, so which worker computes which
// index is deterministic; combined with the usual contract that f only
// writes i-indexed state, results are bit-identical at any GOMAXPROCS.
// With one worker the loop runs inline (w = 0) and pays no fork-join.
func ForEach(n int, o Options, f func(w, i int)) {
	workers := o.Workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			start, end := Partition(n, workers, w)
			for i := start; i < end; i++ {
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Pool manages lazily-created per-worker values (evaluator shallow
// copies, packer scratch, FBS clones) indexed by the worker slot that
// ForEach passes to its callback. Get is safe for concurrent use from
// distinct workers; a given slot's value is created once and reused
// across loops, so steady-state fan-out allocates nothing.
type Pool[T any] struct {
	mk    func() T
	mu    sync.Mutex
	items []T
	made  []bool
}

// NewPool returns a pool whose values are created on first Get by mk.
func NewPool[T any](mk func() T) *Pool[T] {
	return &Pool[T]{mk: mk}
}

// Get returns the value for worker slot w, creating it on first use.
func (p *Pool[T]) Get(w int) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.items) <= w {
		var zero T
		p.items = append(p.items, zero)
		p.made = append(p.made, false)
	}
	if !p.made[w] {
		p.items[w] = p.mk()
		p.made[w] = true
	}
	return p.items[w]
}

// Each calls f on every value created so far, in slot order — the
// deterministic merge point for per-worker accumulators (stats, counts).
func (p *Pool[T]) Each(f func(T)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, ok := range p.made {
		if ok {
			f(p.items[i])
		}
	}
}

// FirstErr returns the lowest-indexed error of a fan-out that wrote
// errs[i] from iteration i, so the reported failure does not depend on
// scheduling.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
