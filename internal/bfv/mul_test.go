package bfv

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"athena/internal/ring"
)

// mulSumOracle computes what FinishInto must return for Σ_k as[k] ⊗ bs[k]
// the way the sum is defined: the centered coefficients of every operand
// as integers, the negacyclic tensor products summed over Z, each of d0,
// d1, d2 rounded (half up) to t·x/Q and reduced modulo Q. Only the
// keyswitch of d2 is the evaluator's own (on a copy of its scratch).
func mulSumOracle(ev *Evaluator, as, bs []*Ciphertext) *Ciphertext {
	ctx := ev.ctx
	ints := func(p ring.Poly) []*big.Int {
		c := p.Clone()
		ctx.RingQ.INTT(c)
		return ctx.BasisQ.ReconstructPoly(c)
	}
	var d [3][]*big.Int
	for i := range d {
		d[i] = make([]*big.Int, ctx.N)
		for j := range d[i] {
			d[i][j] = new(big.Int)
		}
	}
	var p big.Int
	addConv := func(dst, x, y []*big.Int) {
		for i := range x {
			for j := range y {
				p.Mul(x[i], y[j])
				if k := i + j; k < len(dst) {
					dst[k].Add(dst[k], &p)
				} else {
					dst[k-len(dst)].Sub(dst[k-len(dst)], &p)
				}
			}
		}
	}
	for k := range as {
		a0, a1, b0, b1 := ints(as[k].C0), ints(as[k].C1), ints(bs[k].C0), ints(bs[k].C1)
		addConv(d[0], a0, b0)
		addConv(d[1], a0, b1)
		addConv(d[1], a1, b0)
		addConv(d[2], a1, b1)
	}
	twoT, twoQ := new(big.Int).Lsh(ctx.TBig, 1), new(big.Int).Lsh(ctx.QBig, 1)
	var polys [3]ring.Poly
	for i := range d {
		for _, x := range d[i] {
			// ⌊(2·t·x + Q)/(2·Q)⌋: Div is Euclidean, a floor for Q > 0.
			x.Mul(x, twoT).Add(x, ctx.QBig).Div(x, twoQ)
		}
		polys[i] = ctx.RingQ.NewPoly()
		ctx.BasisQ.ReducePoly(d[i], polys[i])
	}
	out := &Ciphertext{C0: polys[0], C1: polys[1]}
	ctx.RingQ.NTT(out.C0)
	ctx.RingQ.NTT(out.C1)
	ks0, ks1 := ev.ShallowCopy().keySwitchCoeff(polys[2], &ev.keys.Relin.SwitchingKey)
	ctx.RingQ.Add(out.C0, ks0, out.C0)
	ctx.RingQ.Add(out.C1, ks1, out.C1)
	return out
}

// mulSum runs Σ_k as[k] ⊗ bs[k] through extend → accumulate → finish,
// spreading the terms over two partial sums when there are several.
func mulSum(ev *Evaluator, as, bs []*Ciphertext) (*Ciphertext, error) {
	ctx := ev.ctx
	opA, opB := ctx.NewOperand(), ctx.NewOperand()
	acc, part := ctx.NewAccumulator(), ctx.NewAccumulator()
	for k := range as {
		if err := ev.ExtendInto(as[k], opA); err != nil {
			return nil, err
		}
		if err := ev.ExtendInto(bs[k], opB); err != nil {
			return nil, err
		}
		dst := acc
		if k%2 == 1 {
			dst = part
		}
		if err := ev.Accumulate(opA, opB, dst); err != nil {
			return nil, err
		}
	}
	if err := ev.AddAccumulator(part, acc); err != nil {
		return nil, err
	}
	out := ctx.NewCiphertext()
	return out, ev.FinishInto(acc, out)
}

func ctEqual(a, b *Ciphertext) bool { return a.C0.Equal(b.C0) && a.C1.Equal(b.C1) }

// smallSumKit is a context whose extension basis clears B > t·N·Q + 2 by
// under three bits (N = 32, two 51-bit primes, t = 257 against two 59-bit
// primes), so the sum capacity is a single digit and its edge can be
// reached.
func smallSumKit(t testing.TB) *testKit {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(51, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(Parameters{LogN: 5, Qi: primes, T: 257})
	if err != nil {
		t.Fatal(err)
	}
	if c := ctx.SumCapacity(); c < 4 || c >= 8 {
		t.Fatalf("sum capacity %d, the tests below need one in [4, 8)", c)
	}
	kg := NewKeyGenerator(ctx, 1234)
	sk := kg.GenSecretKey()
	return &testKit{
		ctx: ctx, sk: sk,
		enc: NewEncryptor(ctx, kg.GenPublicKey(sk), 77),
		dec: NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, kg.GenKeySet(sk, nil)),
		cod: NewEncoder(ctx),
	}
}

// edgeCiphertext builds a pair of polynomials that need not be an
// encryption of anything: the tensor product and its rescale are defined
// on any operand. shape 0 draws uniform coefficients, 1 and 2 put every
// coefficient at +(Q−1)/2 or −(Q−1)/2 (the magnitude the capacity bound
// assumes: coefficient N−1 of a product of two such polynomials is
// N·((Q−1)/2)²), 3 gives each coefficient a random sign of it.
func edgeCiphertext(ctx *Context, rng *rand.Rand, shape uint8) *Ciphertext {
	half := new(big.Int).Rsh(ctx.QBig, 1)
	ct := ctx.NewCiphertext()
	for _, p := range []ring.Poly{ct.C0, ct.C1} {
		vals := make([]*big.Int, ctx.N)
		for j := range vals {
			v := new(big.Int).Set(half)
			switch {
			case shape == 0:
				v.SetInt64(0)
				for range ctx.Params.Qi {
					v.Lsh(v, 64).Add(v, new(big.Int).SetUint64(rng.Uint64()))
				}
				v.Mod(v, ctx.QBig)
			case shape == 2, shape == 3 && rng.Uint64()&1 == 1:
				v.Neg(v)
			}
			vals[j] = v
		}
		ctx.BasisQ.ReducePoly(vals, p)
		ctx.RingQ.NTT(p)
	}
	return ct
}

// TestMulIsOneTermSum: MulInto is the one-term case of extend →
// accumulate → finish, byte for byte, and a squaring's single extension
// gives what two extensions of the same ciphertext give.
func TestMulIsOneTermSum(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	a := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, 1)))
	b := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, 2)))
	for _, c := range []struct {
		name string
		x, y *Ciphertext
	}{{"a·b", a, b}, {"a·a", a, a}} {
		want, err := k.ev.Mul(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		// Two operands even when x == y: the squaring's second extension.
		opX, opY, acc := k.ctx.NewOperand(), k.ctx.NewOperand(), k.ctx.NewAccumulator()
		if err := k.ev.ExtendInto(c.x, opX); err != nil {
			t.Fatal(err)
		}
		if err := k.ev.ExtendInto(c.y, opY); err != nil {
			t.Fatal(err)
		}
		if err := k.ev.Accumulate(opX, opY, acc); err != nil {
			t.Fatal(err)
		}
		got := k.ctx.NewCiphertext()
		if err := k.ev.FinishInto(acc, got); err != nil {
			t.Fatal(err)
		}
		if !ctEqual(got, want) {
			t.Errorf("%s: one-term sum differs from Mul", c.name)
		}
		if !ctEqual(want, mulSumOracle(k.ev, []*Ciphertext{c.x}, []*Ciphertext{c.y})) {
			t.Errorf("%s: Mul differs from the big-integer oracle", c.name)
		}
		if acc.Terms() != 0 {
			t.Errorf("%s: FinishInto left %d terms", c.name, acc.Terms())
		}
	}
}

// TestMulSumMatchesOracle: for K products summed in the extended basis,
// the ciphertext equals the big-integer oracle's and decrypts to the
// slot-wise Σ a_k·b_k mod t — at K = 1, 2, 16 where the capacity is
// large, and up to the capacity itself where it is 7, there also on
// operands of the largest magnitude the bound allows. One term more is an
// error, from Accumulate and from AddAccumulator.
func TestMulSumMatchesOracle(t *testing.T) {
	wide, small := newTestKit(t, 5, 3, nil), smallSumKit(t)
	capSmall := small.ctx.SumCapacity()
	for _, c := range []struct {
		name string
		k    *testKit
		ks   []int
	}{
		{"wide", wide, []int{1, 2, 16}},
		{"small", small, []int{1, 2, capSmall}},
	} {
		ctx, tBig := c.k.ctx, c.k.ctx.TBig
		for _, K := range c.ks {
			as, bs := make([]*Ciphertext, K), make([]*Ciphertext, K)
			want := make([]*big.Int, ctx.N)
			for i := range want {
				want[i] = new(big.Int)
			}
			for k := 0; k < K; k++ {
				va := randVals(ctx.N, int64(ctx.Params.T/2), uint64(100+k))
				vb := randVals(ctx.N, int64(ctx.Params.T/2), uint64(200+k))
				as[k], bs[k] = c.k.enc.Encrypt(c.k.cod.EncodeSlots(va)), c.k.enc.Encrypt(c.k.cod.EncodeSlots(vb))
				for i := range want {
					want[i].Add(want[i], new(big.Int).Mul(big.NewInt(va[i]), big.NewInt(vb[i])))
				}
			}
			got, err := mulSum(c.k.ev, as, bs)
			if err != nil {
				t.Fatalf("%s K=%d: %v", c.name, K, err)
			}
			if !ctEqual(got, mulSumOracle(c.k.ev, as, bs)) {
				t.Errorf("%s K=%d: sum differs from the big-integer oracle", c.name, K)
			}
			slots := c.k.cod.DecodeSlots(c.k.dec.Decrypt(got))
			for i, w := range want {
				w.Mod(w, tBig)
				if g := new(big.Int).Mod(big.NewInt(slots[i]), tBig); g.Cmp(w) != 0 {
					t.Fatalf("%s K=%d slot %d: %v want %v", c.name, K, i, g, w)
				}
			}
		}
	}

	// The capacity is not an estimate: at every shape of extreme operand
	// a full accumulator still rescales exactly.
	ctx, ev := small.ctx, small.ev
	rng := rand.New(rand.NewPCG(5, 6))
	for shape := uint8(1); shape <= 3; shape++ {
		as, bs := make([]*Ciphertext, capSmall), make([]*Ciphertext, capSmall)
		for k := range as {
			as[k], bs[k] = edgeCiphertext(ctx, rng, shape), edgeCiphertext(ctx, rng, shape)
		}
		got, err := mulSum(ev, as, bs)
		if err != nil {
			t.Fatal(err)
		}
		if !ctEqual(got, mulSumOracle(ev, as, bs)) {
			t.Errorf("shape %d: a full accumulator of extreme operands differs from the oracle", shape)
		}
	}

	// Capacity + 1.
	op, acc, part := ctx.NewOperand(), ctx.NewAccumulator(), ctx.NewAccumulator()
	if err := ev.ExtendInto(small.enc.EncryptZero(), op); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < capSmall; k++ {
		if err := ev.Accumulate(op, op, acc); err != nil {
			t.Fatalf("term %d of %d: %v", k+1, capSmall, err)
		}
	}
	if err := ev.Accumulate(op, op, acc); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("term %d accepted by Accumulate: %v", capSmall+1, err)
	}
	if err := ev.Accumulate(op, op, part); err != nil {
		t.Fatal(err)
	}
	if err := ev.AddAccumulator(part, acc); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("term %d accepted by AddAccumulator: %v", capSmall+1, err)
	}
	if acc.Terms() != capSmall || part.Terms() != 1 {
		t.Errorf("a refused merge moved terms: %d and %d", acc.Terms(), part.Terms())
	}
	if err := ev.FinishInto(part, ctx.NewCiphertext()); err != nil {
		t.Fatal(err)
	}
	if err := ev.FinishInto(part, ctx.NewCiphertext()); err == nil {
		t.Error("an empty accumulator was finished")
	}
}

// TestMulSumNoiseNotAboveSeparateMuls: one rounding and one
// relinearization for the whole sum cannot leave more noise than one per
// term.
func TestMulSumNoiseNotAboveSeparateMuls(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	const K = 16
	as, bs := make([]*Ciphertext, K), make([]*Ciphertext, K)
	var sep *Ciphertext
	for i := range as {
		as[i] = k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, uint64(300+i))))
		bs[i] = k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, uint64(400+i))))
		prod, err := k.ev.Mul(as[i], bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if sep == nil {
			sep = prod
		} else {
			k.ev.AddInPlace(sep, prod)
		}
	}
	sum, err := mulSum(k.ev, as, bs)
	if err != nil {
		t.Fatal(err)
	}
	if !k.dec.Decrypt(sum).equal(k.dec.Decrypt(sep)) {
		t.Fatal("the two forms decrypt differently")
	}
	bSum, bSep := k.dec.NoiseBudget(sum), k.dec.NoiseBudget(sep)
	t.Logf("noise budget after %d products: summed %v bits, separate %v bits", K, bSum, bSep)
	if bSum < bSep {
		t.Errorf("summed form has less budget left (%v bits) than %d separate products (%v bits)", bSum, K, bSep)
	}
}

func (pt *Plaintext) equal(o *Plaintext) bool {
	for i := range pt.Coeffs {
		if pt.Coeffs[i] != o.Coeffs[i] {
			return false
		}
	}
	return len(pt.Coeffs) == len(o.Coeffs)
}

// TestMulRejectsOperandAtAnotherLevel: a ciphertext with more limbs than
// the evaluator used to panic in Poly.CopyTo, one with fewer multiplied
// against stale scratch limbs; both are errors now.
func TestMulRejectsOperandAtAnotherLevel(t *testing.T) {
	k := newTestKit(t, 5, 4, nil)
	mid, err := k.ctx.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(mid, k.ev.Keys())
	full := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, 1)))
	ok, err := k.ctx.ModDown(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	low, err := k.ctx.ModDown(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Mul(ok, ok); err != nil {
		t.Fatalf("operands at the evaluator's level: %v", err)
	}
	for name, bad := range map[string]*Ciphertext{"more limbs": full, "fewer limbs": low} {
		for _, pair := range [][2]*Ciphertext{{bad, ok}, {ok, bad}, {bad, bad}} {
			if _, err := ev.Mul(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "evaluator at level 3") {
				t.Errorf("%s: Mul returned %v", name, err)
			}
		}
		if err := ev.ExtendInto(bad, mid.NewOperand()); err == nil {
			t.Errorf("%s: ExtendInto accepted it", name)
		}
		if err := ev.MulInto(ok, ok, bad); err == nil {
			t.Errorf("%s: MulInto wrote into it", name)
		}
	}
}

// FuzzMulSum: up to four products of arbitrary operand polynomials —
// uniform or at the extremes the capacity bound is computed from, two
// bits of shape per term — summed in the extended basis must equal the
// big-integer oracle bit for bit.
func FuzzMulSum(f *testing.F) {
	k := smallSumKit(f)
	f.Fuzz(func(t *testing.T, seed uint64, terms, shapes uint8) {
		rng := rand.New(rand.NewPCG(seed, 0xf022))
		K := 1 + int(terms%4)
		as, bs := make([]*Ciphertext, K), make([]*Ciphertext, K)
		for i := range as {
			shape := shapes >> (2 * i) & 3
			as[i], bs[i] = edgeCiphertext(k.ctx, rng, shape), edgeCiphertext(k.ctx, rng, shape)
		}
		got, err := mulSum(k.ev, as, bs)
		if err != nil {
			t.Fatal(err)
		}
		if !ctEqual(got, mulSumOracle(k.ev, as, bs)) {
			t.Fatalf("seed %d, %d terms, shapes %#x: sum differs from the oracle", seed, K, shapes)
		}
	})
}
