package bfv

import (
	"fmt"
	"testing"

	"athena/internal/ring"
)

func BenchmarkEncrypt(b *testing.B) {
	k := newTestKit(b, 11, 6, nil)
	pt := k.cod.EncodeCoeffs(randVals(k.ctx.N, 1000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.enc.Encrypt(pt)
	}
}

func BenchmarkPMult(b *testing.B) {
	k := newTestKit(b, 11, 6, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.ctx.N, 1000, 3)))
	pm := k.cod.LiftToMul(k.cod.EncodeCoeffs(randVals(k.ctx.N, 100, 4)))
	out := k.ctx.NewCiphertext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.MulPlainInto(ct, pm, out)
	}
}

// cmultShape is a parameter shape the benchmark workloads multiply at.
type cmultShape struct {
	name                     string
	logN, bits, limbs, level int
	t                        uint64
}

// The core.TestParams chain, and nine of the ten 55-bit limbs of the
// N = 512, t = 12289 chain (its FBS level).
var (
	shapeT257   = cmultShape{"n128_6x50_t257", 7, 50, 6, 6, 257}
	shapeT12289 = cmultShape{"n512_9of10x55_t12289", 9, 55, 10, 9, 12289}
)

// shapeKit is a shape's full chain with a key pair and an encryptor.
type shapeKit struct {
	full *Context
	kg   *KeyGenerator
	sk   *SecretKey
	enc  *Encryptor
	cod  *Encoder
}

func (s cmultShape) kit(b *testing.B) shapeKit {
	primes, err := ring.GenerateNTTPrimes(s.bits, s.logN, s.limbs)
	if err != nil {
		b.Fatal(err)
	}
	full, err := NewContext(Parameters{LogN: s.logN, Qi: primes, T: s.t})
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(full, 1234)
	sk := kg.GenSecretKey()
	return shapeKit{full: full, kg: kg, sk: sk, enc: NewEncryptor(full, kg.GenPublicKey(sk), 77), cod: NewEncoder(full)}
}

// encryptAt returns a fresh encryption of random messages below t/2 in
// magnitude, dropped to level L.
func (k shapeKit) encryptAt(b *testing.B, L int, seed uint64) *Ciphertext {
	t := k.full.Params.T
	ct, err := k.full.ModDown(k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.full.N, int64(t/2), seed))), L)
	if err != nil {
		b.Fatal(err)
	}
	return ct
}

// run runs f as a sub-benchmark with an evaluator and two distinct
// ciphertexts at the shape's level.
func (s cmultShape) run(b *testing.B, f func(b *testing.B, ctx *Context, ev *Evaluator, x, y *Ciphertext)) {
	b.Run(s.name, func(b *testing.B) {
		k := s.kit(b)
		ctx, err := k.full.AtLevel(s.level)
		if err != nil {
			b.Fatal(err)
		}
		x, y := k.encryptAt(b, s.level, 5), k.encryptAt(b, s.level, 6)
		f(b, ctx, NewEvaluator(ctx, k.kg.GenKeySet(k.sk, nil)), x, y)
	})
}

// cmultShapes runs f at both workload shapes.
func cmultShapes(b *testing.B, f func(b *testing.B, ctx *Context, ev *Evaluator, x, y *Ciphertext)) {
	shapeT257.run(b, f)
	shapeT12289.run(b, f)
}

// The engine's level schedule at both shapes: FBS one limb below the
// full chain, everything after a LUT round at two limbs.
const postLevel = 2

// kitShapes runs f as a sub-benchmark at both workload shapes.
func kitShapes(b *testing.B, f func(b *testing.B, s cmultShape, k shapeKit)) {
	for _, s := range []cmultShape{shapeT257, shapeT12289} {
		b.Run(s.name, func(b *testing.B) { f(b, s, s.kit(b)) })
	}
}

// BenchmarkModDown measures the two drops an engine runs: FBS → post
// after every LUT round and full → post on a client's input ciphertexts
// (the first call, which builds the constants, is not timed).
func BenchmarkModDown(b *testing.B) {
	kitShapes(b, func(b *testing.B, s cmultShape, k shapeKit) {
		for _, from := range []struct {
			name string
			L    int
		}{{"fbs_to_post", s.limbs - 1}, {"full_to_post", s.limbs}} {
			ct := k.encryptAt(b, from.L, 5)
			b.Run(from.name, func(b *testing.B) {
				var sc RescaleScratch
				if _, err := k.full.ModDownWith(ct, postLevel, &sc); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.full.ModDownWith(ct, postLevel, &sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkSwitchModulus measures Step ② at the post level: the switch
// to qMid = t·2^12 ahead of every extraction, staged in the caller as
// the engine's workers stage it.
func BenchmarkSwitchModulus(b *testing.B) {
	kitShapes(b, func(b *testing.B, s cmultShape, k shapeKit) {
		ct, qMid := k.encryptAt(b, postLevel, 5), s.t<<12
		a, c := make([]uint64, k.full.N), make([]uint64, k.full.N)
		var sc RescaleScratch
		if err := k.full.SwitchModulusInto(ct, qMid, a, c, &sc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := k.full.SwitchModulusInto(ct, qMid, a, c, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecrypt measures decryption at the shape's level.
func BenchmarkDecrypt(b *testing.B) {
	kitShapes(b, func(b *testing.B, s cmultShape, k shapeKit) {
		ct, dec := k.encryptAt(b, s.level, 5), NewDecryptor(k.full, k.sk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.Decrypt(ct)
		}
	})
}

// BenchmarkCMult measures one product: two extensions, one tensor
// product, one finish.
func BenchmarkCMult(b *testing.B) {
	cmultShapes(b, func(b *testing.B, ctx *Context, ev *Evaluator, x, y *Ciphertext) {
		opX, opY, acc, out := ctx.NewOperand(), ctx.NewOperand(), ctx.NewAccumulator(), ctx.NewCiphertext()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.ExtendInto(x, opX); err != nil {
				b.Fatal(err)
			}
			if err := ev.ExtendInto(y, opY); err != nil {
				b.Fatal(err)
			}
			if err := ev.Accumulate(opX, opY, acc); err != nil {
				b.Fatal(err)
			}
			if err := ev.FinishInto(acc, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMulSum measures a sum of products the way fbs forms its
// giant-step sum: per term one extension and one product against an
// operand extended beforehand, then one finish for the whole sum. 15 and
// 110 are the term counts at t = 257 and t = 12289; ns/op over terms
// against BenchmarkCMult is what a product costs once it shares its
// finish.
func BenchmarkMulSum(b *testing.B) {
	cmultShapes(b, func(b *testing.B, ctx *Context, ev *Evaluator, x, y *Ciphertext) {
		for _, terms := range []int{1, 15, 110} {
			b.Run(fmt.Sprintf("terms=%d", terms), func(b *testing.B) {
				opX, opY, acc, out := ctx.NewOperand(), ctx.NewOperand(), ctx.NewAccumulator(), ctx.NewCiphertext()
				if err := ev.ExtendInto(y, opY); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < terms; k++ {
						if err := ev.ExtendInto(x, opX); err != nil {
							b.Fatal(err)
						}
						if err := ev.Accumulate(opX, opY, acc); err != nil {
							b.Fatal(err)
						}
					}
					if err := ev.FinishInto(acc, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkMulScalarSums measures the baby step of an FBS call at t =
// 12289: G inner sums over the 110 baby powers (distinct ciphertexts, 8 MB
// — more than a core's cache, as in an evaluation) in one matrix call.
// G = 110 is the whole coefficient matrix; fbs hands a lane a few rows at
// a time. ns/term is per scalar product of one coefficient.
func BenchmarkMulScalarSums(b *testing.B) {
	shapeT12289.run(b, func(b *testing.B, ctx *Context, ev *Evaluator, x, _ *Ciphertext) {
		const kn = 110
		cts := make([]*Ciphertext, kn)
		for k := range cts {
			cts[k] = x.Clone()
		}
		for _, g := range []int{1, 4, 8, 110} {
			b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
				ks, outs := make([][]uint64, g), make([]*Ciphertext, g)
				for i := range ks {
					ks[i], outs[i] = make([]uint64, kn), ctx.NewCiphertext()
					for k := range ks[i] {
						ks[i][k] = uint64(1+i*kn+k) % ctx.Params.T
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ev.MulScalarSums(cts, ks, outs); err != nil {
						b.Fatal(err)
					}
				}
				terms := float64(b.N) * float64(g*kn*2*ctx.Level()*ctx.N)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/terms, "ns/term")
			})
		}
	})
}

func BenchmarkRotation(b *testing.B) {
	k := newTestKit(b, 11, 6, []int{1})
	ct := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, 6)))
	g, out := ring.GaloisElementForRotation(k.ctx.N, 1), k.ctx.NewCiphertext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.ev.AutomorphismInto(ct, g, out); err != nil {
			b.Fatal(err)
		}
	}
}
