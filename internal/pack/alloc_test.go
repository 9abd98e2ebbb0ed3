package pack

import (
	"runtime"
	"testing"

	"athena/internal/lwe"
	"athena/internal/par"
)

// TestPackIntoZeroAllocs enforces the noalloc contract on the serial
// BSGS pipeline: after a warm-up call fills the lazy evaluator/encoder
// scratch and the Galois permutation cache, a full Pack — gathers,
// slot encodes, lifts, plaintext products, giant-step rotations, and
// the b-term addition — must not touch the heap.
func TestPackIntoZeroAllocs(t *testing.T) {
	k := newKit(t, 6, 4)
	tq := k.ctx.Params.T
	lweSK := lwe.NewSecretKey(16, 61)
	p, err := NewPacker(k.ctx, k.enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(62)
	cts := make([]lwe.Ciphertext, k.ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(lweSK, smp.Uint64N(tq), tq, 0, smp)
	}

	sc := p.NewScratch()
	out := k.ctx.NewCiphertext()
	if n := testing.AllocsPerRun(20, func() {
		if err := p.PackInto(ev, sc, cts, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("PackInto allocates %v times per run, want 0", n)
	}
}

// mallocs reports the heap allocations f makes, the fewest of five
// runs: runtime.MemStats counts every goroutine's, so a fan-out's spawn
// is seen where testing.AllocsPerRun, which holds GOMAXPROCS at 1, never
// fans out.
func mallocs(f func()) uint64 {
	var least uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestPackIntoFannedOutAllocs: at two workers the giant steps fan out
// over the scratch's lanes, and a warm PackInto allocates no more than an
// empty par.ForEach over the same giant steps — nothing per giant step.
func TestPackIntoFannedOutAllocs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the fan-out needs two CPUs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	k := newKit(t, 6, 4)
	tq := k.ctx.Params.T
	lweSK := lwe.NewSecretKey(16, 65)
	p, err := NewPacker(k.ctx, k.enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	gs := p.n / p.bs
	if gs < 4 {
		t.Fatalf("%d giant steps, want at least 4", gs)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(66)
	cts := make([]lwe.Ciphertext, k.ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(lweSK, smp.Uint64N(tq), tq, 0, smp)
	}

	sc, out := p.NewScratch(), k.ctx.NewCiphertext()
	pack := func() {
		if err := p.PackInto(ev, sc, cts, out); err != nil {
			t.Fatal(err)
		}
	}
	pack()
	lanes := 0
	if sc.lanes != nil {
		sc.lanes.Each(func(*packLane) { lanes++ })
	}
	if lanes < 2 {
		t.Fatalf("PackInto ran on %d lanes at GOMAXPROCS=2, want 2", lanes)
	}
	spawn := mallocs(func() { par.ForEach(gs, par.Options{MinGrain: 1}, func(int, int) {}) })
	n := mallocs(pack)
	t.Logf("warm PackInto: %d allocations; empty par.ForEach: %d", n, spawn)
	if n > spawn {
		t.Fatalf("fanned-out PackInto allocates %d times, an empty par.ForEach over %d giant steps %d", n, gs, spawn)
	}
}
