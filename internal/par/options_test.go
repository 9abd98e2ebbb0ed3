package par

import (
	"runtime"
	"sync"
	"testing"
)

// TestOptionsWorkers pins the worker-count policy: the default grain is
// 64 iterations per worker, MinGrain=1 lets operator-level callers
// (few, heavy items) fan out, and ItemCost reimposes the ForWork work
// floor. All caps are additionally bounded by the physical CPU count,
// so the expected values are expressed through min(·, NumCPU).
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
		o    Options
		want int
	}{
		{"default grain keeps small loops serial", 63, Options{}, 1},
		{"default grain fans out at 64 per worker", 8 * defaultGrain, Options{}, capAt(8)},
		{"min grain 1 fans out few heavy items", 3, Options{MinGrain: 1}, capAt(3)},
		{"min grain 1 caps at usable CPUs", 100, Options{MinGrain: 1}, capAt(8)},
		{"min grain 2", 5, Options{MinGrain: 2}, capAt(2)},
		{"max workers cap", 100, Options{MinGrain: 1, MaxWorkers: 4}, capAt(4)},
		{"item cost floor keeps cheap items serial", 4, Options{MinGrain: 1, ItemCost: 10}, 1},
		{"item cost floor admits heavy items", 4, Options{MinGrain: 1, ItemCost: minWorkPerWorker}, capAt(4)},
		{"zero iterations", 0, Options{MinGrain: 1}, 1},
	}
	for _, c := range cases {
		if got := c.o.Workers(c.n); got != c.want {
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

	if got := (Options{MinGrain: 1}).Workers(16 * ncpu); got > ncpu {
		t.Errorf("Workers = %d exceeds NumCPU = %d", got, ncpu)
	}
	if got := usableWorkers(); got != ncpu {
		t.Errorf("usableWorkers = %d, want NumCPU = %d", got, ncpu)
	}
	if ncpu == 1 && WorthForWork(64, 1<<20) {
		t.Error("single CPU with inflated GOMAXPROCS must stay inline")
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
	o := Options{MinGrain: 1}
	workers := o.Workers(n)
	gotWorker := make([]int, n)
	for i := range gotWorker {
		gotWorker[i] = -1
	}
	ForEach(n, o, func(w, i int) {
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
