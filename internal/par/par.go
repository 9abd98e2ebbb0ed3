// Package par provides the tiny deterministic fork-join helper the hot
// paths share: output-indexed loops whose iterations are independent
// (per-coefficient CRT work, per-extraction keyswitches, per-limb NTTs)
// run across GOMAXPROCS workers with no ordering effects on results.
//
// Every helper applies a grain-size floor: goroutines are only
// spawned when every worker receives enough work to amortize the
// fork-join. That costs far more than spawning a goroutine (about a
// microsecond): BenchmarkForEachOverhead measures 12–61 µs per two-lane
// ForEach of 50–400 µs items on a 2-CPU host. Small loops — and every
// loop on a single-CPU machine — run inline, so callers never pay
// fork-join cost at test scale.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultGrain is the minimum number of iterations a worker must receive
// before ForEach fans out under a zero Options.MinGrain.
const defaultGrain = 64

// minWorkPerWorker is the approximate per-goroutine operation floor for
// ForWork: with fewer total "cost units" than this per worker, the
// fork-join (see the package comment) exceeds the parallel win.
const minWorkPerWorker = 1 << 15

// usableWorkers is the parallelism actually available to a fan-out:
// GOMAXPROCS capped at the physical CPU count. Raising GOMAXPROCS above
// NumCPU (as the p-sweep benchmarks do) adds runnable goroutines without
// adding hardware lanes, so the extra workers only time-slice — on a
// single-CPU host a requested p=2 was measurably slower than serial.
// Capping here collapses every helper to the inline path in that case.
func usableWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); w > n {
		w = n
	}
	return w
}

// WorthForWork reports whether ForWork would fan out across more than
// one goroutine for the given loop shape. Hot paths that must stay
// allocation-free check it first: constructing the closure for ForWork
// heap-allocates (the func value escapes into worker goroutines), so a
// caller can keep a closure-free serial loop for the inline case and
// only build the closure when parallelism will actually be used.
func WorthForWork(n, itemCost int) bool {
	workers := usableWorkers()
	if workers > n {
		workers = n
	}
	if workers > 1 && itemCost > 0 {
		if max := n * itemCost / minWorkPerWorker; workers > max {
			workers = max
		}
	}
	return workers > 1
}

// ForWork runs f(i) for i in [0, n), with workers taking indices from
// an atomic counter, and sizes the worker pool by the caller's estimate
// of the per-iteration cost instead of by n alone. It is the entry point
// for loops with few but heavy iterations — per-limb NTTs, per-digit
// keyswitch accumulation — where an iteration-count grain would always
// run inline. itemCost is an approximate operation count per iteration
// (e.g. N·logN for one NTT limb); parallelism kicks in only when
// n·itemCost exceeds minWorkPerWorker per worker, so tiny test-scale
// calls (N=2^10, two or three limbs) stay inline and pay no scheduling
// overhead; a zero itemCost defers to the CPU count alone.
//
// f must only write i-indexed state.
func ForWork(n, itemCost int, f func(i int)) {
	workers := usableWorkers()
	if workers > n {
		workers = n
	}
	if workers > 1 && itemCost > 0 {
		if max := n * itemCost / minWorkPerWorker; workers > max {
			workers = max
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
