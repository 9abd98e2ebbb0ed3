package pack

import (
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/ring"
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

// BenchmarkPackT12289 packs N = 512 LWE ciphertexts of dimension 64 at
// single_t12289's FBS level (nine 55-bit limbs, t = 12289): 8 giant
// steps of 8 baby steps, whose 7 rotations are the call's critical path.
func BenchmarkPackT12289(b *testing.B) {
	primes, err := ring.GenerateNTTPrimes(55, 9, 9)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := bfv.NewContext(bfv.Parameters{LogN: 9, Qi: primes, T: 12289})
	if err != nil {
		b.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, 3)
	sk := kg.GenSecretKey()
	lweSK := lwe.NewSecretKey(64, 5)
	p, err := NewPacker(ctx, bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), 4), lweSK)
	if err != nil {
		b.Fatal(err)
	}
	ev := bfv.NewEvaluator(ctx, kg.GenKeySet(sk, p.GaloisElements()))
	smp := lwe.NewStream(6)
	cts := make([]lwe.Ciphertext, ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(lweSK, smp.Uint64N(ctx.Params.T), ctx.Params.T, 3.2, smp)
	}
	sc, out := p.NewScratch(), ctx.NewCiphertext()
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
