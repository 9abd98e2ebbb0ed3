package fbs

import (
	"testing"

	"athena/internal/bfv"
)

func BenchmarkInterpolateFermat(b *testing.B) {
	l := ReLULUT(65537)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Interpolate()
	}
}

func BenchmarkInterpolateNaive(b *testing.B) {
	l := ReLULUT(12289) // t-1 not a power of two: O(t²) path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Interpolate()
	}
}

// benchEvaluate measures a warm EvaluateWith of the ReLU table: the
// scratch has run once, so what is left is what every later call of a
// worker pays.
func benchEvaluate(b *testing.B, ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext) {
	fe, err := NewEvaluator(ctx, ReLULUT(ctx.Params.T))
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScratch()
	if _, err := fe.EvaluateWith(ev, sc, ct); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fe.EvaluateWith(ev, sc, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBSEvaluateT257(b *testing.B) {
	ctx, enc, _, ev, cod := fbsKit(b, 6, 6, 257)
	benchEvaluate(b, ctx, ev, enc.Encrypt(cod.EncodeSlots(make([]int64, ctx.N))))
}

// BenchmarkFBSEvaluateT12289 is the single_t12289 workload's shape: N =
// 512, nine of ten 55-bit limbs, bs = gs = 111.
func BenchmarkFBSEvaluateT12289(b *testing.B) {
	full, enc, _, fullEv, cod := fbsKitBits(b, 9, 55, 10, 12289)
	ctx, err := full.AtLevel(9)
	if err != nil {
		b.Fatal(err)
	}
	ev := bfv.NewEvaluator(ctx, fullEv.Keys())
	ct, err := full.ModDown(enc.Encrypt(cod.EncodeSlots(make([]int64, full.N))), 9)
	if err != nil {
		b.Fatal(err)
	}
	benchEvaluate(b, ctx, ev, ct)
}
