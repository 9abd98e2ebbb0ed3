package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOptionsWorkers pins the worker-count policy: one worker per item
// up to the usable CPUs, and at least one. All caps are additionally
// bounded by the physical CPU count, so the expected values are
// expressed through min(·, NumCPU).
func TestOptionsWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	capAt := func(v int) int {
		if n := runtime.NumCPU(); v > n {
			return n
		}
		return v
	}

	cases := []struct {
		name string
		n    int
		want int
	}{
		{"few heavy items fan out", 3, capAt(3)},
		{"caps at usable CPUs", 100, capAt(8)},
		{"one item runs inline", 1, 1},
		{"zero iterations", 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n); got != c.want {
			t.Errorf("%s: Workers(%d) = %d, want %d", c.name, c.n, got, c.want)
		}
	}
}

// TestWorkersCappedByNumCPU is the bench-smoke assertion behind the
// EncryptedInference/p=N rows: when GOMAXPROCS is raised above the
// physical CPU count (as the p-sweep does on small hosts), every fan-out
// must collapse to the usable parallelism instead of time-slicing extra
// goroutines — on a single-CPU machine the p=2 row had been ~19% slower
// than serial before this cap.
func TestWorkersCappedByNumCPU(t *testing.T) {
	ncpu := runtime.NumCPU()
	old := runtime.GOMAXPROCS(4 * ncpu)
	defer runtime.GOMAXPROCS(old)

	if got := Workers(16 * ncpu); got != ncpu {
		t.Errorf("Workers = %d, want NumCPU = %d", got, ncpu)
	}
}

// TestPartitionPinned pins the fixed block partitioning ForEach uses:
// contiguous ranges, first n%workers blocks one element longer, full
// disjoint cover of [0, n).
func TestPartitionPinned(t *testing.T) {
	type rng struct{ start, end int }
	cases := []struct {
		n, workers int
		want       []rng
	}{
		{10, 4, []rng{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{3, 3, []rng{{0, 1}, {1, 2}, {2, 3}}},
		{7, 2, []rng{{0, 4}, {4, 7}}},
		{5, 1, []rng{{0, 5}}},
	}
	for _, c := range cases {
		for w, want := range c.want {
			s, e := Partition(c.n, c.workers, w)
			if s != want.start || e != want.end {
				t.Errorf("Partition(%d, %d, %d) = [%d, %d), want [%d, %d)",
					c.n, c.workers, w, s, e, want.start, want.end)
			}
		}
	}
	// Cover/disjointness sweep.
	for n := 0; n <= 33; n++ {
		for workers := 1; workers <= 9; workers++ {
			covered := make([]int, n)
			for w := 0; w < workers; w++ {
				s, e := Partition(n, workers, w)
				for i := s; i < e; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForEachWorkerSlots checks every iteration runs exactly once, on
// the worker slot Partition assigns, with slots below Workers(n).
func TestForEachWorkerSlots(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 11
	workers := Workers(n)
	gotWorker := make([]int, n)
	for i := range gotWorker {
		gotWorker[i] = -1
	}
	ForEach(n, func(w, i int) {
		if gotWorker[i] != -1 {
			t.Errorf("iteration %d ran twice", i)
		}
		gotWorker[i] = w
	})
	for i, w := range gotWorker {
		if w < 0 || w >= workers {
			t.Fatalf("iteration %d ran on slot %d (workers=%d)", i, w, workers)
		}
		s, e := Partition(n, workers, w)
		if i < s || i >= e {
			t.Errorf("iteration %d ran on slot %d owning [%d, %d)", i, w, s, e)
		}
	}
}

// TestPoolLazyAndStable checks pool values are created once per slot,
// reused across loops, and merged in slot order by Each.
func TestPoolLazyAndStable(t *testing.T) {
	var created int
	var mu sync.Mutex
	p := NewPool(func() *int {
		mu.Lock()
		created++
		mu.Unlock()
		v := new(int)
		return v
	})
	first := p.Get(2)
	if p.Get(2) != first {
		t.Fatal("slot 2 not stable across Get calls")
	}
	if p.Get(0) == first {
		t.Fatal("distinct slots share a value")
	}
	if created != 2 {
		t.Fatalf("created %d values, want 2 (slot 1 untouched)", created)
	}
	*p.Get(0) = 10
	*p.Get(2) = 30
	var order []int
	p.Each(func(v *int) { order = append(order, *v) })
	if len(order) != 2 || order[0] != 10 || order[1] != 30 {
		t.Fatalf("Each visited %v, want [10 30] in slot order", order)
	}
}

func TestParallelPathWithMultipleProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var sum int64
	ForEach(5000, func(_, i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 5000*4999/2 {
		t.Fatalf("sum %d", sum)
	}
}
