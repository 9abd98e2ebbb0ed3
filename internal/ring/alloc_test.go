package ring

import "testing"

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
