package bfv

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"athena/internal/ring"
)

// uniformCiphertext fills both polynomials with uniform residues: a
// scalar sum is linear limb by limb, so its tests need no encryption.
func uniformCiphertext(ctx *Context, rng *rand.Rand) *Ciphertext {
	ct := ctx.NewCiphertext()
	for h := 0; h < 2; h++ {
		for i, limb := range ct.half(h).Coeffs {
			for j := range limb {
				limb[j] = rng.Uint64N(ctx.RingQ.Moduli[i].Q)
			}
		}
	}
	return ct
}

// mulScalar returns ct · k for the scalar k ∈ Z_t at its centered
// representative (SMult), one Shoup product per limb: the reference
// MulScalarSums is checked against.
func mulScalar(ev *Evaluator, ct *Ciphertext, k uint64) *Ciphertext {
	c := ev.ctx.TMod.Centered(ev.ctx.TMod.Reduce(k))
	out := ev.ctx.NewCiphertext()
	for i, m := range ev.ctx.RingQ.Moduli {
		kv := m.ReduceInt64(c)
		sh := m.ShoupPrecomp(kv)
		m.MulShoupVec(ct.C0.Coeffs[i], kv, sh, out.C0.Coeffs[i])
		m.MulShoupVec(ct.C1.Coeffs[i], kv, sh, out.C1.Coeffs[i])
	}
	return out
}

// scalarSumChain is the oracle of MulScalarSums: one mulScalar and one
// addition per term.
func scalarSumChain(ev *Evaluator, cts []*Ciphertext, ks []uint64) *Ciphertext {
	sum := ev.ctx.NewCiphertext()
	for k, ct := range cts {
		ev.AddInPlace(sum, mulScalar(ev, ct, ks[k]))
	}
	return sum
}

func checkScalarSums(t *testing.T, name string, ev *Evaluator, cts []*Ciphertext, ks [][]uint64) {
	t.Helper()
	outs := make([]*Ciphertext, len(ks))
	for g := range outs {
		// Stale contents must be overwritten, not added to.
		outs[g] = cts[0].Clone()
	}
	if err := ev.MulScalarSums(cts, ks, outs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for g := range outs {
		if want := scalarSumChain(ev, cts, ks[g]); !outs[g].C0.Equal(want.C0) || !outs[g].C1.Equal(want.C1) {
			t.Fatalf("%s: output %d differs from its mulScalar + addition chain", name, g)
		}
	}
}

// TestMulScalarSumsMatchesChains: for generated shapes the matrix form
// equals, limb for limb, G independent single sums. K = 110 and 16 are the
// baby steps of the two workloads; K = 1024 and 1100 (sixteen ciphertexts
// repeated) make the tile exactly N = 64 columns wide and narrower than
// it, so N = 32, 64 and 128 fall below, at and above the tile width; every
// third term has a zero column of scalars, output 1 an all-zero row.
func TestMulScalarSumsMatchesChains(t *testing.T) {
	for _, logN := range []int{5, 6, 7} {
		ctx := testContext(t, logN, 3)
		ev := NewEvaluator(ctx, nil)
		rng := rand.New(rand.NewPCG(uint64(logN), 17))
		pool := make([]*Ciphertext, 16)
		for i := range pool {
			pool[i] = uniformCiphertext(ctx, rng)
		}
		for _, kn := range []int{1, 2, 16, 110, 1024, 1100} {
			cts := make([]*Ciphertext, kn)
			for k := range cts {
				cts[k] = pool[k%len(pool)]
			}
			for _, g := range []int{1, 2, 3, 4, 5, 8, 9} {
				if kn > 110 && g != 3 && g != 4 {
					continue
				}
				ks := make([][]uint64, g)
				for i := range ks {
					ks[i] = make([]uint64, kn)
					for k := range ks[i] {
						if i != 1 && k%3 != 2 {
							ks[i][k] = rng.Uint64N(ctx.Params.T)
						}
					}
				}
				checkScalarSums(t, fmt.Sprintf("N=%d K=%d G=%d", ctx.N, kn, g), ev, cts, ks)
			}
		}
		// No terms at all: every output is zero.
		checkScalarSums(t, "K=0", ev, pool[:1], [][]uint64{{0}, {0}})
		outs := []*Ciphertext{pool[0].Clone()}
		if err := ev.MulScalarSums(nil, [][]uint64{nil}, outs); err != nil {
			t.Fatal(err)
		}
		if zero := ctx.NewCiphertext(); !outs[0].C0.Equal(zero.C0) || !outs[0].C1.Equal(zero.C1) {
			t.Fatal("a sum of no terms is not zero")
		}
	}
}

// TestMulScalarSumsTermBound is the t = 65537 baby step (bs − 1 = 256
// rows) on a small ring with two 60-bit limbs, where 256 products of
// values below q sit exactly on the 128-bit accumulator, and with two
// 61-bit limbs, where they are four times past it: rows at q − 1, the
// scalar −1 (the weight q − 1, the largest the centered lift produces)
// and ±(t−1)/2, for 256 and 257 rows.
func TestMulScalarSumsTermBound(t *testing.T) {
	for _, bits := range []int{60, 61} {
		primes, err := ring.GenerateNTTPrimes(bits, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(Parameters{LogN: 5, Qi: primes, T: 65537})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(ctx, nil)
		top := ctx.NewCiphertext()
		for h := 0; h < 2; h++ {
			for i, limb := range top.half(h).Coeffs {
				for j := range limb {
					limb[j] = primes[i] - 1
				}
			}
		}
		for _, kn := range []int{256, 257} {
			cts := make([]*Ciphertext, kn)
			ks := [][]uint64{make([]uint64, kn), make([]uint64, kn), make([]uint64, kn)}
			for k := range cts {
				cts[k] = top
				ks[0][k] = 65536               // −1
				ks[1][k] = 32769               // −(t−1)/2
				ks[2][k] = 32768 + uint64(k&1) // (t−1)/2 and −(t−1)/2 alternating
			}
			checkScalarSums(t, fmt.Sprintf("%d-bit limbs, K=%d", bits, kn), ev, cts, ks)
		}
	}
}

// TestMulScalarSumsRejectsAnotherLevel: a term or an output with more or
// fewer limbs than the evaluator is an error, not an index out of range.
func TestMulScalarSumsRejectsAnotherLevel(t *testing.T) {
	full := testContext(t, 5, 4)
	mid, err := full.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	low, err := full.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(mid, nil)
	ok, ks := mid.NewCiphertext(), [][]uint64{{1, 2}}
	for name, bad := range map[string]*Ciphertext{"more limbs": full.NewCiphertext(), "fewer limbs": low.NewCiphertext()} {
		if err := ev.MulScalarSums([]*Ciphertext{ok, bad}, ks, []*Ciphertext{mid.NewCiphertext()}); err == nil || !strings.Contains(err.Error(), "evaluator at level 3") {
			t.Errorf("%s as a term: %v", name, err)
		}
		if err := ev.MulScalarSums([]*Ciphertext{ok, ok}, ks, []*Ciphertext{bad}); err == nil || !strings.Contains(err.Error(), "evaluator at level 3") {
			t.Errorf("%s as an output: %v", name, err)
		}
	}
}
