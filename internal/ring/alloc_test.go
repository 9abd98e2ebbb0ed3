package ring

import (
	"runtime"
	"testing"
)

// The transforms are leaf kernels: they must never allocate, or the
// per-limb call volume of the evaluator would turn into GC pressure.
func TestNTTZeroAllocs(t *testing.T) {
	tab := NewNTTTable(557057, 10) // 2^10-friendly prime
	p := make([]uint64, tab.N)
	for i := range p {
		p[i] = uint64(i*i+1) % tab.M.Q
	}
	if n := testing.AllocsPerRun(100, func() { tab.Forward(p) }); n != 0 {
		t.Fatalf("Forward allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.Inverse(p) }); n != 0 {
		t.Fatalf("Inverse allocates %v times per run, want 0", n)
	}
}

// The tile kernel runs once per limb, polynomial and group of every FBS
// baby step, on buffers its caller owns.
func TestMulSumTileZeroAllocs(t *testing.T) {
	m := NewModulus(557057)
	rows := [][]uint64{make([]uint64, 16), make([]uint64, 16), make([]uint64, 16)}
	w := [][]uint64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	outs := [][]uint64{make([]uint64, 16), make([]uint64, 16), make([]uint64, 16)}
	tile := make([]uint64, 16*len(rows))
	if n := testing.AllocsPerRun(100, func() {
		PackTile(rows, 0, 16, tile)
		m.MulSumTile(tile, w, outs)
	}); n != 0 {
		t.Fatalf("PackTile + MulSumTile allocate %v times per run, want 0", n)
	}
}

// The pair sum runs once per limb of every keyswitch, plaintext sum and
// LWE switch, on buffers its caller owns.
func TestMulSumPairVecZeroAllocs(t *testing.T) {
	m := NewModulus(557057)
	rows := [][]uint64{make([]uint64, 100), make([]uint64, 100), make([]uint64, 100)}
	out0, out1 := make([]uint64, 100), make([]uint64, 100)
	if n := testing.AllocsPerRun(100, func() { m.MulSumPairVec(rows, rows, rows, out0, out1) }); n != 0 {
		t.Fatalf("MulSumPairVec allocates %v times per run, want 0", n)
	}
}

// The per-limb kernels run serially on their caller's goroutine, so they
// allocate nothing at any GOMAXPROCS. testing.AllocsPerRun pins
// GOMAXPROCS to 1 and would not see a fork-join, so this reads the
// malloc count around the calls at the host's setting, on a
// MediumParams-class ring (N = 2^11, 12 limbs).
func TestLimbKernelsZeroAllocsAtHostProcs(t *testing.T) {
	r := testRing(t, 11, 12)
	a, b, out := randomPoly(r, 1), randomPoly(r, 2), r.NewPoly()
	rows := [][]uint64{a.Coeffs[0], b.Coeffs[0], out.Coeffs[0]}
	kernels := []struct {
		name string
		f    func()
	}{
		{"NTT", func() { r.NTT(a) }},
		{"INTT", func() { r.INTT(a) }},
		{"NTTRows", func() { r.NTTRows(0, rows) }},
		{"MulCoeffs", func() { r.MulCoeffs(a, b, out) }},
		{"MulCoeffsAndAdd", func() { r.MulCoeffsAndAdd(a, b, out) }},
	}
	var before, after runtime.MemStats
	for _, k := range kernels {
		k.f() // warm
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			k.f()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s allocates %d times in 10 calls at GOMAXPROCS=%d, want 0", k.name, n, runtime.GOMAXPROCS(0))
		}
	}
}
