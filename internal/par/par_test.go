package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForWorkCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, itemCost := range []int{0, 1, 1 << 12, 1 << 20} {
			seen := make([]int32, n)
			ForWork(n, itemCost, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d cost=%d index %d visited %d times", n, itemCost, i, c)
				}
			}
		}
	}
}

// TestForWorkGrainFloor checks the worker cap: loops whose total work is
// below minWorkPerWorker per worker must run inline (WorthForWork false),
// and heavy loops must fan out when CPUs allow.
func TestForWorkGrainFloor(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	// 6 limbs of tiny work: 6·128 ops is far below the floor.
	if WorthForWork(6, 128) {
		t.Fatal("tiny loop should not fan out")
	}
	if runtime.NumCPU() > 1 {
		// Zero/negative cost estimates must not divide the worker count away.
		if !WorthForWork(8, 0) {
			t.Fatal("zero itemCost should defer to the CPU count only")
		}
		// 8 limbs of 2^15 ops each exceeds the per-worker floor.
		if !WorthForWork(8, 1<<15) {
			t.Fatal("heavy loop should fan out")
		}
	}
	runtime.GOMAXPROCS(1)
	if WorthForWork(8, 1<<20) {
		t.Fatal("single CPU must stay inline")
	}
}

func TestParallelPathWithMultipleProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var sum int64
	ForWork(5000, 0, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 5000*4999/2 {
		t.Fatalf("sum %d", sum)
	}
}
