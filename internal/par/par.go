// Package par provides the one deterministic fork-join the evaluator
// uses: lanes. An operator-level loop over a handful of heavy,
// independent items — the images of a batch, a layer's LUT rounds and
// windows, the BSGS giant steps of a packing, FBS's rounds — runs its
// items across up to GOMAXPROCS workers, each with its own scratch from
// a Pool, with no ordering effects on results.
//
// There is one level of fan-out: the per-limb kernels of package ring
// run serially on their lane's goroutine. A fork-join costs far more
// than spawning a goroutine — BenchmarkForEachOverhead measures 12–61 µs
// per two-lane ForEach of 50–400 µs items on a 2-CPU host — and a fork
// nested inside a lane competes with the other lanes for the same CPUs.
// Removing the per-limb fan-out cost no time at MediumParams shape and
// cut ≈ 33 000 allocations per inference to ≈ 200 (EXPERIMENTS.md).
package par

import (
	"runtime"
	"sync"
)

// Workers reports how many workers ForEach(n, ·) uses: min(n,
// GOMAXPROCS, NumCPU), and at least 1. The NumCPU cap means a
// GOMAXPROCS raised past the hardware (the p-sweep benchmarks) degrades
// to the usable parallelism instead of time-slicing extra goroutines
// over the same cores — on a single-CPU host a requested p=2 was
// measurably slower than serial.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); w > c {
		w = c
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
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

// ForEach runs f(w, i) for every i in [0, n), where w ∈ [0, Workers(n))
// is the stable worker slot executing the iteration — callers index
// per-worker scratch (evaluator clones, staging buffers) by w. Work is
// split by the fixed Partition blocks, so which worker computes which
// index is deterministic; combined with the usual contract that f only
// writes i-indexed state, results are bit-identical at any GOMAXPROCS.
// With one worker the loop runs inline (w = 0) and pays no fork-join.
func ForEach(n int, f func(w, i int)) {
	workers := Workers(n)
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
