package fbs

import (
	"math/rand/v2"
	"testing"

	"athena/internal/ring"
)

// TestRangeLUTMatchesOnSpan: at t = 257, for every width from 1 to 256
// and for an interval around 0 and one beside it, a range table equals f
// on every point of the interval — f of the integer, also where it lies
// past t/2 — and its completed table interpolates to zero from the
// span's size d on. A fused remap and a table of random words both hold.
func TestRangeLUTMatchesOnSpan(t *testing.T) {
	const tq = 257
	tm := ring.NewModulus(tq)
	rng := rand.New(rand.NewPCG(42, 43))
	random := make([]int64, 3*tq)
	for i := range random {
		random[i] = rng.Int64N(tq) - tq/2
	}
	fns := map[string]func(x int64) int64{
		"remap":  func(x int64) int64 { return min(max(x, 0)/3, 15) },
		"random": func(x int64) int64 { return random[x+tq] },
	}
	for name, f := range fns {
		for w := int64(1); w < tq; w++ {
			for _, lo := range []int64{-w / 2, w / 3, -w - 4} {
				hi := lo + w - 1
				l, err := NewRangeLUT(tq, lo, hi, f)
				if err != nil {
					t.Fatal(err)
				}
				sLo, sHi := Span(tq, lo, hi)
				d := int(sHi-sLo) + 1
				if d >= tq {
					if l.coeffCount() != tq {
						t.Fatalf("%s on [%d, %d]: a span of %d points is not the full table", name, lo, hi, d)
					}
				} else if l.coeffCount() != d {
					t.Fatalf("%s on [%d, %d]: %d coefficients, the span [%d, %d] has %d points", name, lo, hi, l.coeffCount(), sLo, sHi, d)
				}
				for x := sLo; x <= sHi; x++ {
					if got, want := l.Table[tm.ReduceInt64(x)], tm.ReduceInt64(f(x)); d < tq && got != want {
						t.Fatalf("%s on [%d, %d]: table(%d) = %d, f = %d", name, lo, hi, x, got, want)
					}
				}
				for i, c := range l.Interpolate()[l.coeffCount():] {
					if c != 0 {
						t.Fatalf("%s on [%d, %d]: coefficient %d of %d points is %d", name, lo, hi, l.coeffCount()+i, d, c)
					}
				}
			}
		}
	}
}

// TestRangeLUTRejectsInexactCompletion: the completion's convolution is
// exact at its 60-bit prime only while d·(t−1)² is below it; beyond that
// the build fails instead of completing a wrong table.
func TestRangeLUTRejectsInexactCompletion(t *testing.T) {
	const big = 1<<21 - 9 // prime: 2^20 points times (t − 1)² pass 2^61
	if _, err := NewRangeLUT(big, -1<<19, 1<<19, func(x int64) int64 { return x }); err == nil {
		t.Fatal("a completion past the prime's bound was built")
	}
}

// TestRangeEvaluatorMatchesTable: a range table's plan evaluates the
// completed table on every input of Z_t — on its span that is f — on a
// split chosen for its d coefficients, which is cheaper than the full
// table's and no deeper.
func TestRangeEvaluatorMatchesTable(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
	f := func(x int64) int64 { return min(max(x, 0)/2, 7) }
	full, err := NewEvaluator(ctx, NewLUT(257, f))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range [][2]int64{{-63, 63}, {-49, 49}, {-1, 1}, {0, 0}, {-120, 120}} {
		l, err := NewRangeLUT(257, iv[0], iv[1], f)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := NewEvaluator(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if fe.cost() > full.cost() || fe.depth() > full.depth() {
			t.Fatalf("[%d, %d]: split %+v costs %d at depth %d, the full table's %d at %d", iv[0], iv[1], fe.split, fe.cost(), fe.depth(), full.cost(), full.depth())
		}
		t.Logf("[%d, %d]: %d coefficients, split %d × %d × %d, cost %d (full %d)", iv[0], iv[1], l.coeffCount(), fe.bs, fe.g1, fe.g2, fe.cost(), full.cost())
		checkAllInputs(t, "range", ctx, enc, dec, ev, cod, l, fe)
	}
}

// TestScratchAlternatesSplits: one Scratch serving two plans of different
// splits in turn keeps a set of ladders for each, so once both have run
// an alternation allocates what the two warm evaluations do apart.
func TestScratchAlternatesSplits(t *testing.T) {
	ctx, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	narrow, err := NewRangeLUT(257, -49, 49, func(x int64) int64 { return max(x, 0) / 2 })
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewEvaluator(ctx, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEvaluator(ctx, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if a.split == b.split {
		t.Fatalf("both plans split %+v", a.split)
	}
	ct := enc.Encrypt(cod.EncodeSlots(make([]int64, ctx.N)))
	sc, out := NewScratch(), ctx.NewCiphertext()
	run := func(fe *Evaluator) func() {
		return func() {
			if err := fe.EvaluateInto(ev, sc, ct, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	ra, rb := run(a), run(b)
	ra()
	rb()
	na, nb := testing.AllocsPerRun(10, ra), testing.AllocsPerRun(10, rb)
	both := testing.AllocsPerRun(10, func() { ra(); rb() })
	t.Logf("warm: %v and %v allocations apart, %v alternating", na, nb, both)
	if both > na+nb {
		t.Fatalf("alternating splits allocates %v per pair, the two apart %v", both, na+nb)
	}
}
