package pack

import (
	"math"
	"slices"
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/ring"
)

// hornerBudgets packs N noisy LWE ciphertexts under the keys of seed and
// runs S2C on the result, over the full chain of six 50-bit limbs at
// N = 2⁷, t = 257 and LWE n = 32 (8 giant steps for the packer, 8 for
// S2C): TestParams' shape. It returns the packed ciphertext's noise
// budget and S2C's output's, in bits.
func hornerBudgets(t *testing.T, seed uint64) (packed, s2c float64) {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(50, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := bfv.NewContext(bfv.Parameters{LogN: 7, Qi: primes, T: 257})
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), seed^0xe1)
	dec := bfv.NewDecryptor(ctx, sk)
	lweSK := lwe.NewSecretKey(32, seed^0x1e)
	p, err := NewPacker(ctx, enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CompileTransform(ctx, S2CMatrix(ctx))
	if err != nil {
		t.Fatal(err)
	}
	ev := bfv.NewEvaluator(ctx, kg.GenKeySet(sk, DedupGalois(p.GaloisElements(), tr.GaloisElements())))
	smp := lwe.NewStream(seed ^ 0x5a)
	cts := make([]lwe.Ciphertext, ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(lweSK, smp.Uint64N(ctx.Params.T), ctx.Params.T, 3.2, smp)
	}
	out, err := pack(p, ev, cts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apply(tr, ev, out)
	if err != nil {
		t.Fatal(err)
	}
	return dec.NoiseBudget(out), dec.NoiseBudget(res)
}

// TestHornerNoisePinned: summing the giant steps by Horner's rule issues
// the same gs − 1 keyswitches as one rotation per giant step, each adding
// one keyswitch error to the running sum, so the budget left after a
// packing and after S2C stays where it was. Over 16 key seeds at
// hornerBudgets' shape, one rotation key per giant step left:
//
//	packed: median 231.0 bits, min 231.0
//	S2C:    median 217.5 bits, min 217.0
//
// With one key (σ by the baby-step count) they read 230.0/230.0 and
// 218.0/217.0. Both medians and minima must stay within 1 bit of the
// former.
func TestHornerNoisePinned(t *testing.T) {
	const seeds = 16
	var packed, s2c []float64
	for s := uint64(1); s <= seeds; s++ {
		pb, sb := hornerBudgets(t, s)
		packed, s2c = append(packed, pb), append(s2c, sb)
	}
	check := func(name string, got []float64, median, least float64) {
		slices.Sort(got)
		m := (got[seeds/2-1] + got[seeds/2]) / 2
		t.Logf("%s budget over %d key seeds: median %.1f bits, min %.1f, max %.1f", name, seeds, m, got[0], got[seeds-1])
		if math.Abs(m-median) > 1 || math.Abs(got[0]-least) > 1 {
			t.Errorf("%s budget: median %.1f bits, min %.1f; one rotation key per giant step left %.1f and %.1f", name, m, got[0], median, least)
		}
	}
	check("packed", packed, 231.0, 231.0)
	check("S2C", s2c, 217.5, 217.0)
}
