package pack

import (
	"testing"

	"athena/internal/lwe"
)

func BenchmarkPack64(b *testing.B) {
	k := newKit(b, 7, 4)
	sk := lwe.NewSecretKey(32, 5)
	p, err := NewPacker(k.ctx, k.enc, sk)
	if err != nil {
		b.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(6)
	cts := make([]lwe.Ciphertext, 64)
	for i := range cts {
		cts[i] = lwe.Encrypt(sk, smp.Uint64N(k.ctx.Params.T), k.ctx.Params.T, 3.2, smp)
	}
	sc, out := p.NewScratch(), k.ctx.NewCiphertext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PackInto(ev, sc, cts, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkS2CApply(b *testing.B) {
	k := newKit(b, 7, 4)
	tr, err := CompileTransform(k.ctx, S2CMatrix(k.ctx))
	if err != nil {
		b.Fatal(err)
	}
	ev := k.evaluator(tr.GaloisElements())
	ct := k.enc.Encrypt(k.cod.EncodeSlots(make([]int64, k.ctx.N)))
	var sc TransformScratch
	out := k.ctx.NewCiphertext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.ApplyInto(ev, &sc, ct, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileS2C(b *testing.B) {
	k := newKit(b, 7, 4)
	m := S2CMatrix(k.ctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileTransform(k.ctx, m); err != nil {
			b.Fatal(err)
		}
	}
}
