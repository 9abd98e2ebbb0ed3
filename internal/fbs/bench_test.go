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

func BenchmarkInterpolateT12289(b *testing.B) {
	l := ReLULUT(12289) // t − 1 = 3·2¹²: three transforms and their combination
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Interpolate()
	}
}

// benchEvaluate measures a warm EvaluateWith of lut: the scratch has run
// once, so what is left is what every later call of a worker pays.
func benchEvaluate(b *testing.B, ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext, lut *LUT) {
	fe, err := NewEvaluator(ctx, lut)
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
	// What the split buys: a finish is 1.31 ms and an extension 0.38 ms of
	// a t = 12289 call, a product 0.15 ms.
	b.ReportMetric(float64(fe.finishes), "finishes/op")
	b.ReportMetric(float64(fe.extensions), "extensions/op")
}

func BenchmarkFBSEvaluateT257(b *testing.B) {
	ctx, enc, _, ev, cod := fbsKit(b, 6, 6, 257)
	benchEvaluate(b, ctx, ev, enc.Encrypt(cod.EncodeSlots(make([]int64, ctx.N))), ReLULUT(257))
}

// benchEvaluateT12289 is the single_t12289 workload's shape: N = 512,
// nine of ten 55-bit limbs, split 86 × 16 × 9.
func benchEvaluateT12289(b *testing.B, lut *LUT) {
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
	benchEvaluate(b, ctx, ev, ct, lut)
}

// BenchmarkFBSEvaluateT12289 runs the plain ReLU: its odd coefficients
// past c_1 vanish, so it has 6 144 scalar terms.
func BenchmarkFBSEvaluateT12289(b *testing.B) { benchEvaluateT12289(b, ReLULUT(12289)) }

// BenchmarkFBSEvaluateT12289Dense runs a fused ReLU + remap table, which
// is what a network's layers carry (DigitNet14's have 12 286 terms):
// every coefficient but c_0 is nonzero, 12 288 scalar terms.
func BenchmarkFBSEvaluateT12289Dense(b *testing.B) {
	benchEvaluateT12289(b, NewLUT(12289, func(x int64) int64 { return max(x, 0) / 8 }))
}
