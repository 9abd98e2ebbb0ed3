package fbs

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"athena/internal/bfv"
	"athena/internal/ring"
)

func TestInterpolatePaperExample(t *testing.T) {
	// Section 3.2.3: ReLU under t=5 gives FBS(x) = 3x + x² + 2x⁴.
	l := ReLULUT(5)
	wantTable := []uint64{0, 1, 2, 0, 0}
	for k, w := range wantTable {
		if l.Table[k] != w {
			t.Fatalf("LUT[%d] = %d want %d", k, l.Table[k], w)
		}
	}
	c := l.Interpolate()
	want := []uint64{0, 3, 1, 0, 2}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("coefficient %d: got %d want %d", i, c[i], want[i])
		}
	}
}

// evalPoly evaluates the interpolated polynomial at x over Z_t.
func evalPoly(coeffs []uint64, x uint64, tm ring.Modulus) uint64 {
	// Horner.
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = tm.Add(tm.Mul(acc, x), coeffs[i])
	}
	return acc
}

func TestInterpolationIsExactEverywhere(t *testing.T) {
	for _, tq := range []uint64{5, 17, 97, 257} {
		tm := ring.NewModulus(tq)
		rng := rand.New(rand.NewPCG(tq, 1))
		l := &LUT{T: tq, Table: make([]uint64, tq)}
		for k := range l.Table {
			l.Table[k] = rng.Uint64N(tq)
		}
		c := l.Interpolate()
		for x := uint64(0); x < tq; x++ {
			if got := evalPoly(c, x, tm); got != l.Table[x] {
				t.Fatalf("t=%d: FBS(%d)=%d want %d", tq, x, got, l.Table[x])
			}
		}
	}
}

// powerSumsNaive computes g_j = Σ_{k≠0} LUT(k)·k^j directly in O(t²): the
// oracle for powerSums.
func (l *LUT) powerSumsNaive(tm ring.Modulus) []uint64 {
	t := l.T
	g := make([]uint64, t-1)
	for k := uint64(1); k < t; k++ {
		v := l.Table[k]
		if v == 0 {
			continue
		}
		pw := uint64(1)
		for j := uint64(0); j < t-1; j++ {
			g[j] = tm.Add(g[j], tm.Mul(v, pw))
			pw = tm.Mul(pw, k)
		}
	}
	return g
}

// TestPowerSumsMatchNaive pins the split DFT to the direct sums where
// t − 1 is a power of two (257), where it has the odd cofactor 3 (97,
// 769 and the paper-shaped 12289 = 3·2¹² + 1), and at 5·2 + 1 and 7·2² + 1.
func TestPowerSumsMatchNaive(t *testing.T) {
	for _, tq := range []uint64{11, 29, 97, 257, 769, 12289} {
		tm := ring.NewModulus(tq)
		rng := rand.New(rand.NewPCG(9, tq))
		l := &LUT{T: tq, Table: make([]uint64, tq)}
		for k := range l.Table {
			l.Table[k] = rng.Uint64N(tq)
		}
		fft := l.powerSums(tm)
		naive := l.powerSumsNaive(tm)
		for j := range naive {
			if fft[j] != naive[j] {
				t.Fatalf("t=%d g_%d: DFT %d naive %d", tq, j, fft[j], naive[j])
			}
		}
	}
}

func TestLookupCentered(t *testing.T) {
	l := ReLULUT(257)
	cases := map[int64]int64{0: 0, 5: 5, 127: 127, -1: 0, -100: 0}
	for in, want := range cases {
		if got := l.Lookup(in); got != want {
			t.Errorf("ReLU(%d) = %d want %d", in, got, want)
		}
	}
}

func fbsKit(t testing.TB, logN, limbs int, tq uint64) (*bfv.Context, *bfv.Encryptor, *bfv.Decryptor, *bfv.Evaluator, *bfv.Encoder) {
	t.Helper()
	return fbsKitBits(t, logN, 50, limbs, tq)
}

func fbsKitBits(t testing.TB, logN, bits, limbs int, tq uint64) (*bfv.Context, *bfv.Encryptor, *bfv.Decryptor, *bfv.Evaluator, *bfv.Encoder) {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(bits, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := bfv.NewContext(bfv.Parameters{LogN: logN, Qi: primes, T: tq})
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, 71)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := kg.GenKeySet(sk, nil)
	return ctx, bfv.NewEncryptor(ctx, pk, 72), bfv.NewDecryptor(ctx, sk), bfv.NewEvaluator(ctx, keys), bfv.NewEncoder(ctx)
}

func TestHomomorphicFBSReLU(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
	lut := NewLUT(257, func(x int64) int64 {
		// Fused ReLU + remap by /4 (a miniature Athena activation).
		y := x
		if y < 0 {
			y = 0
		}
		return y / 4
	})
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, ctx.N)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range vals {
		vals[i] = int64(rng.Uint64N(257)) - 128
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))
	out, err := fe.Evaluate(ev, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := cod.DecodeSlots(dec.Decrypt(out))
	for i, v := range vals {
		if got[i] != lut.Lookup(v) {
			t.Fatalf("slot %d: FBS(%d)=%d want %d", i, v, got[i], lut.Lookup(v))
		}
	}
	bs, gs := fe.Steps()
	if bs*gs < 257 || bs*(gs-1) >= 257 {
		t.Fatalf("BSGS split %d×%d does not cover the table exactly", bs, gs)
	}
	// The plan's operation counts, derived flat instead of row by row.
	// Products, from the digits of the chosen split 13 × 5 × 4: 12 + 4 + 2
	// ladder products (x² … x^bs, y² … y^g₁, z² … z^(g₂−1)), one per giant
	// step that is not the first of its middle sum, one per middle sum but
	// the first — 37 where the flat 17 × 16 split issues (bs−1) + (gs−2) +
	// (gs−1) = 45. One scalar product per nonzero coefficient that is not
	// a constant c_{a·bs}; and every nonzero coefficient is a leaf of one
	// tree of additions: one less than there are.
	scalars, wantAdds := 0, -1
	for i, c := range lut.Interpolate() {
		if c != 0 && i%bs != 0 {
			scalars++
		}
		if c != 0 {
			wantAdds++
		}
	}
	s := fe.split
	if s != (split{bs: 13, g1: 5, g2: 4, gs: 20}) {
		t.Fatalf("chosen split %+v, want 13 × 5 × 4", s)
	}
	checkDenseCounts(t, fe, 37, 45)
	if fe.SMults != scalars || fe.HAdds != wantAdds {
		t.Fatalf("plan counts %d SMult, %d HAdd; want %d, %d", fe.SMults, fe.HAdds, scalars, wantAdds)
	}
	t.Logf("FBS t=257: %d CMult, %d SMult, %d HAdd", fe.CMults, fe.SMults, fe.HAdds)
}

// checkDenseCounts pins the finishes, extensions and products of a plan
// whose every giant step has a term — as formulas of its digits, the
// product count also as the literal want — and that the products fell
// from the flat split's.
func checkDenseCounts(t *testing.T, fe *Evaluator, want, flatProducts int) {
	t.Helper()
	s := fe.split
	ladders := (s.bs - 1) + (s.g1 - 1) + (s.g2 - 2) // x² … x^bs, y² … y^g₁, z² … z^(g₂−1)
	mids := s.g2 - 1                                // each finished, extended and multiplied by its power of z
	inner := s.gs - s.g2                            // each extended and multiplied by its power of y
	products := ladders + inner + mids
	finishes := ladders + mids + 1
	extensions := (s.bs+1)/2 + 1 + (s.g1 - 1) + (s.g2 - 2) + inner + mids
	if fe.CMults != products || fe.finishes != finishes || fe.extensions != extensions {
		t.Fatalf("split %+v: %d products, %d finishes, %d extensions; want %d, %d, %d",
			s, fe.CMults, fe.finishes, fe.extensions, products, finishes, extensions)
	}
	if f, e, p := s.counts(); f != finishes || e != extensions || p != products {
		t.Fatalf("split %+v: the chooser counts %d finishes, %d extensions, %d products; the plan %d, %d, %d", s, f, e, p, finishes, extensions, products)
	}
	flat, err := flatSplit(int(fe.ctx.Params.T))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, p := flat.counts(); p != flatProducts || p != (flat.bs-1)+(flat.gs-2)+(flat.gs-1) || products != want || want >= p {
		t.Fatalf("split %+v issues %d products (want %d), the flat %d × %d split %d (want %d)", s, products, want, flat.bs, flat.gs, p, flatProducts)
	}
	if s.depth() > flat.depth() {
		t.Fatalf("split %+v has depth %d, the flat split %d", s, s.depth(), flat.depth())
	}
}

// checkLookup compiles lut on the split the chooser picks and requires
// Evaluate == LUT.Lookup on every input value.
func checkLookup(t *testing.T, name string, ctx *bfv.Context, enc *bfv.Encryptor, dec *bfv.Decryptor, ev *bfv.Evaluator, cod *bfv.Encoder, lut *LUT) *Evaluator {
	t.Helper()
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	checkAllInputs(t, name, ctx, enc, dec, ev, cod, lut, fe)
	return fe
}

// checkAllInputs requires slot-wise Evaluate == LUT.Lookup on every
// residue of Z_t, N slots at a time.
func checkAllInputs(t *testing.T, name string, ctx *bfv.Context, enc *bfv.Encryptor, dec *bfv.Decryptor, ev *bfv.Evaluator, cod *bfv.Encoder, lut *LUT, fe *Evaluator) {
	t.Helper()
	vals := make([]int64, ctx.N)
	for lo := 0; lo < int(lut.T); lo += ctx.N {
		for i := range vals {
			vals[i] = ctx.TMod.Centered(uint64(lo+i) % lut.T)
		}
		out, err := fe.Evaluate(ev, enc.Encrypt(cod.EncodeSlots(vals)))
		if err != nil {
			t.Fatalf("%s, split %+v: %v", name, fe.split, err)
		}
		got := cod.DecodeSlots(dec.Decrypt(out))
		for i, v := range vals {
			if got[i] != lut.Lookup(v) {
				t.Fatalf("%s, split %+v: FBS(%d)=%d want %d (budget %v)", name, fe.split, v, got[i], lut.Lookup(v), dec.NoiseBudget(out))
			}
		}
	}
}

// TestForcedSplits: whatever digits a plan is built on — one giant level
// (g₂ = 1, Alg. 2), the shortest first digit (g₁ = 2), a ragged last
// middle sum (gs not a multiple of g₁, down to a single row), a baby step
// past t/2 (two giant steps), the smallest baby step — a random table
// evaluates to itself on all t inputs.
func TestForcedSplits(t *testing.T) {
	for _, c := range []struct {
		logN   int
		tq     uint64
		splits [][2]int // (bs, g₁)
	}{
		{3, 17, [][2]int{{5, 4}, {5, 2}, {4, 3}, {3, 2}, {3, 4}, {9, 2}, {16, 2}, {2, 3}, {2, 9}}},
		{4, 97, [][2]int{{10, 10}, {10, 2}, {10, 3}, {10, 4}, {7, 5}, {49, 2}, {6, 16}}},
		{5, 257, [][2]int{{17, 16}, {17, 2}, {17, 5}, {13, 5}, {13, 19}, {129, 2}, {16, 8}, {16, 4}}},
	} {
		ctx, enc, dec, ev, cod := fbsKitBits(t, c.logN, 55, 5, c.tq)
		// A random table whose polynomial is dense, so that the plan's
		// counts are the chooser's.
		rng := rand.New(rand.NewPCG(c.tq, 41))
		coeffs := make([]uint64, c.tq)
		for i := range coeffs {
			coeffs[i] = 1 + rng.Uint64N(c.tq-1)
		}
		lut := lutFromPoly(c.tq, coeffs)
		for _, d := range c.splits {
			s, err := newSplit(int(c.tq), d[0], d[1])
			if err != nil {
				t.Fatal(err)
			}
			if s.terms() > ctx.SumCapacity() {
				t.Fatalf("t=%d split %+v sums %d products, capacity %d", c.tq, s, s.terms(), ctx.SumCapacity())
			}
			fe := newEvaluator(ctx, lut.Interpolate(), s)
			checkAllInputs(t, "forced", ctx, enc, dec, ev, cod, lut, fe)
			if f, e, p := s.counts(); fe.finishes != f || fe.extensions != e || fe.CMults != p {
				t.Errorf("t=%d split %+v: plan has %d finishes, %d extensions, %d products; the chooser counts %d, %d, %d", c.tq, s, fe.finishes, fe.extensions, fe.CMults, f, e, p)
			}
		}
	}
	for _, bad := range [][3]int{{257, 1, 2}, {257, 257, 2}, {257, 17, 1}, {257, 17, 17}} {
		if s, err := newSplit(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("newSplit(%d, %d, %d) = %+v, want an error", bad[0], bad[1], bad[2], s)
		}
	}
}

// TestChosenSplits pins the split the chooser picks at every shipped t,
// unconstrained by capacity (SumCapacity is 10 921 at the single_t12289
// shape) — its digits, its finishes, extensions and products beside the
// flat split's — and that its depth does not exceed the flat split's.
// With no room for a product there is no split.
func TestChosenSplits(t *testing.T) {
	for _, c := range []struct {
		t          int
		want       split
		counts     [3]int // finishes, extensions, products
		flatCounts [3]int
		depth      int
	}{
		{257, split{13, 5, 4, 20}, [3]int{22, 33, 37}, [3]int{31, 39, 45}, 10},
		{12289, split{86, 16, 9, 143}, [3]int{116, 208, 249}, [3]int{220, 276, 329}, 15},
		{65537, split{158, 26, 16, 415}, [3]int{212, 533, 610}, [3]int{511, 639, 765}, 18},
	} {
		s, err := chooseSplit(c.t, 10921)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := flatSplit(c.t)
		if err != nil {
			t.Fatal(err)
		}
		f, e, p := s.counts()
		ff, fe, fp := flat.counts()
		if s != c.want || [3]int{f, e, p} != c.counts || [3]int{ff, fe, fp} != c.flatCounts {
			t.Errorf("t=%d: split %+v with %d finishes, %d extensions, %d products (flat %d, %d, %d); want %+v with %v (flat %v)",
				c.t, s, f, e, p, ff, fe, fp, c.want, c.counts, c.flatCounts)
		}
		if s.depth() > flat.depth() || flat.depth() != c.depth || flat.depth() != ceilLog2(flat.bs)+ceilLog2(flat.gs-1)+1 {
			t.Errorf("t=%d: depth %d, flat depth %d, want at most %d", c.t, s.depth(), flat.depth(), c.depth)
		}
		if s.cost() >= flat.cost() {
			t.Errorf("t=%d: cost %d, flat cost %d", c.t, s.cost(), flat.cost())
		}
	}
	if s, err := chooseSplit(257, 0); err == nil {
		t.Errorf("capacity 0: chose %+v", s)
	}
}

// TestEvaluateMatchesLookup: the point of FBS is that any table works,
// not just ReLU — a clamped ramp, a random table, and the two degenerate
// polynomials (a constant, which no product reads, and zero).
func TestEvaluateMatchesLookup(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
	rng := rand.New(rand.NewPCG(21, 22))
	random := &LUT{T: 257, Table: make([]uint64, 257)}
	for k := range random.Table {
		random.Table[k] = rng.Uint64N(257)
	}
	for _, c := range []struct {
		name string
		lut  *LUT
	}{
		{"sigmoid-like", NewLUT(257, func(x int64) int64 {
			switch {
			case x < -32:
				return 0
			case x > 32:
				return 16
			default:
				return (x + 32) / 4
			}
		})},
		{"random", random},
		{"constant", NewLUT(257, func(int64) int64 { return 5 })},
		{"zero", NewLUT(257, func(int64) int64 { return 0 })},
	} {
		fe := checkLookup(t, c.name, ctx, enc, dec, ev, cod, c.lut)
		t.Logf("%s: %d CMult, %d SMult, %d HAdd", c.name, fe.CMults, fe.SMults, fe.HAdds)
	}
}

// TestEvaluateAtDigitNetShape runs one fused ReLU + remap table — dense,
// like the tables of a network's layers — at the single_t12289 workload's
// shape: N = 512, t = 12289, nine of ten 55-bit limbs, where the chosen
// split is 86 × 16 × 9 over 143 giant steps (the last middle sum has 15):
// 85 + 15 + 7 ladder products, 134 by powers of y and 8 by powers of z,
// 249 where the flat 111 × 111 split issues 329; one scalar product per
// coefficient that is neither c_0 = 0 nor one of the 142 constants
// c_{a·bs}; the 15 or 16 rows of a middle sum in groups of four.
func TestEvaluateAtDigitNetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("t = 12289 FBS takes seconds; run without -short")
	}
	full, enc, dec, fullEv, cod := fbsKitBits(t, 9, 55, 10, 12289)
	ctx, err := full.AtLevel(9)
	if err != nil {
		t.Fatal(err)
	}
	ev := bfv.NewEvaluator(ctx, fullEv.Keys())
	lut := NewLUT(12289, func(x int64) int64 { return max(x, 0) / 8 })
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	if fe.split != (split{bs: 86, g1: 16, g2: 9, gs: 143}) {
		t.Fatalf("chosen split %+v, want 86 × 16 × 9", fe.split)
	}
	checkDenseCounts(t, fe, 249, 329)
	if fe.finishes != 116 || fe.extensions != 208 {
		t.Fatalf("%d finishes, %d extensions; want 116, 208", fe.finishes, fe.extensions)
	}
	if fe.SMults != 12288-142 || fe.HAdds != 12287 {
		t.Fatalf("plan counts %d SMult, %d HAdd; want %d, 12287", fe.SMults, fe.HAdds, 12288-142)
	}
	rng := rand.New(rand.NewPCG(23, 24))
	vals := make([]int64, ctx.N)
	for i := range vals {
		vals[i] = int64(rng.Uint64N(12289)) - 6144
	}
	ct, err := full.ModDown(enc.Encrypt(cod.EncodeSlots(vals)), 9)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fe.Evaluate(ev, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := cod.DecodeSlots(dec.Decrypt(out))
	for i, v := range vals {
		if got[i] != lut.Lookup(v) {
			t.Fatalf("slot %d: FBS(%d)=%d want %d (budget %v)", i, v, got[i], lut.Lookup(v), dec.NoiseBudget(out))
		}
	}
	t.Logf("t=12289: %d CMult, %d SMult, %d HAdd, sum capacity %d", fe.CMults, fe.SMults, fe.HAdds, ctx.SumCapacity())
}

// TestEvaluateInGroups: the sum capacity is a constraint of the plan.
// With room for 7 products in an accumulator (N = 32, four 55-bit primes)
// the flat split's 15-product giant-step sum does not fit; the chooser
// picks a split whose sums do, and it is exact on every input value.
func TestEvaluateInGroups(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKitBits(t, 5, 55, 4, 257)
	flat, err := flatSplit(257)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx.SumCapacity()
	if c >= flat.terms() {
		t.Fatalf("sum capacity %d holds all %d products of the flat split; the test needs a smaller one", c, flat.terms())
	}
	lut := NewLUT(257, func(x int64) int64 { return max(x, 0) / 4 })
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	if fe.terms() > c {
		t.Fatalf("chosen split %+v sums %d products, capacity %d", fe.split, fe.terms(), c)
	}
	checkAllInputs(t, "relu/4", ctx, enc, dec, ev, cod, lut, fe)
}

// checkNoiseAgainstFlat evaluates lut on every ciphertext of cts under
// the chosen split and under the flat one: the two outputs decrypt
// alike, every output keeps some noise budget, and the chosen split's
// budgets are held to the flat split's on two statistics of the
// encryptions, each within 2 bits — the mean, and the worst input: no
// output of the chosen split reads more than 2 bits below the flat
// split's lowest. The chosen split is no deeper, but its sums are nested
// one level more, and the noise is measured, not read off the depth.
//
// A bound on one encryption compares two draws, not two splits: an
// output's budget is the maximum over its coefficients of a noise
// compounded through ten levels of products, and at t = 257 over key
// seeds 60–89 × six encryptions the chosen split's budget minus the flat
// split's, on the same ciphertext, had mean +0.3 bits and σ 2.4, and read
// below −2 on 24 of the 180.
func checkNoiseAgainstFlat(t *testing.T, ctx *bfv.Context, dec *bfv.Decryptor, ev *bfv.Evaluator, cts []*bfv.Ciphertext, lut *LUT) {
	t.Helper()
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	s, err := flatSplit(int(lut.T))
	if err != nil {
		t.Fatal(err)
	}
	if fe.split == s {
		t.Fatalf("the chosen split %+v is the flat one", s)
	}
	var b, bFlat float64
	low, lowFlat := math.Inf(1), math.Inf(1)
	for k, ct := range cts {
		out, err := fe.Evaluate(ev, ct)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := newEvaluator(ctx, lut.Interpolate(), s).Evaluate(ev, ct)
		if err != nil {
			t.Fatal(err)
		}
		got, want := dec.Decrypt(out).Coeffs, dec.Decrypt(flat).Coeffs
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("coefficient %d: split %+v decrypts to %d, the flat split to %d", i, fe.split, got[i], want[i])
			}
		}
		bo, bf := dec.NoiseBudget(out), dec.NoiseBudget(flat)
		t.Logf("t=%d encryption %d: split %.1f bits, flat %.1f bits", lut.T, k, bo, bf)
		if bo <= 0 || bf <= 0 {
			t.Errorf("encryption %d: split %+v leaves %.1f bits of noise budget, the flat split %.1f", k, fe.split, bo, bf)
		}
		b += bo / float64(len(cts))
		bFlat += bf / float64(len(cts))
		low, lowFlat = min(low, bo), min(lowFlat, bf)
	}
	t.Logf("t=%d noise budget left of %.1f bits over %d encryptions: split %+v mean %.1f, lowest %.1f; flat %+v mean %.1f, lowest %.1f",
		lut.T, dec.NoiseBudget(cts[0]), len(cts), fe.split, b, low, s, bFlat, lowFlat)
	if b < bFlat-2 {
		t.Errorf("split %+v leaves a mean of %.1f bits of noise budget, the flat split %.1f", fe.split, b, bFlat)
	}
	if low < lowFlat-2 {
		t.Errorf("split %+v leaves %.1f bits of noise budget on its worst input, the flat split %.1f on its", fe.split, low, lowFlat)
	}
}

// TestSplitNoiseWithinTwoBitsOfFlat measures the FBS output noise under
// the chosen and the flat split at t = 257 (N = 64, six 50-bit limbs),
// over six encryptions, and at the DigitNet shape (t = 12289, N = 512,
// nine 55-bit limbs), whose evaluations take seconds, over one.
func TestSplitNoiseWithinTwoBitsOfFlat(t *testing.T) {
	t.Run("t257", func(t *testing.T) {
		ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
		cts := make([]*bfv.Ciphertext, 6)
		for k := range cts {
			vals := make([]int64, ctx.N)
			rng := rand.New(rand.NewPCG(51, 52+uint64(k)))
			for i := range vals {
				vals[i] = int64(rng.Uint64N(257)) - 128
			}
			cts[k] = enc.Encrypt(cod.EncodeSlots(vals))
		}
		checkNoiseAgainstFlat(t, ctx, dec, ev, cts, NewLUT(257, func(x int64) int64 { return max(x, 0) / 4 }))
	})
	t.Run("t12289", func(t *testing.T) {
		if testing.Short() {
			t.Skip("t = 12289 FBS takes seconds; run without -short")
		}
		full, enc, dec, fullEv, cod := fbsKitBits(t, 9, 55, 10, 12289)
		ctx, err := full.AtLevel(9)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, ctx.N)
		rng := rand.New(rand.NewPCG(53, 54))
		for i := range vals {
			vals[i] = int64(rng.Uint64N(12289)) - 6144
		}
		ct, err := full.ModDown(enc.Encrypt(cod.EncodeSlots(vals)), 9)
		if err != nil {
			t.Fatal(err)
		}
		checkNoiseAgainstFlat(t, ctx, dec, bfv.NewEvaluator(ctx, fullEv.Keys()), []*bfv.Ciphertext{ct}, NewLUT(12289, func(x int64) int64 { return max(x, 0) / 8 }))
	})
}

// TestEvaluateRejectsInputAtAnotherLevel: a ciphertext with more or fewer
// limbs than the evaluator is an error, not a panic or a wrong result.
func TestEvaluateRejectsInputAtAnotherLevel(t *testing.T) {
	full, enc, _, fullEv, cod := fbsKit(t, 5, 4, 257)
	mid, err := full.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	ev := bfv.NewEvaluator(mid, fullEv.Keys())
	fe, err := NewEvaluator(mid, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	ct := enc.Encrypt(cod.EncodeSlots(make([]int64, full.N)))
	low, err := full.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*bfv.Ciphertext{"more limbs": ct, "fewer limbs": low} {
		if _, err := fe.Evaluate(ev, bad); err == nil || !strings.Contains(err.Error(), "evaluator at level 3") {
			t.Errorf("%s: Evaluate returned %v", name, err)
		}
	}
	ok, err := full.ModDown(ct, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Evaluate(ev, ok); err != nil {
		t.Errorf("after the rejected inputs, a good one: %v", err)
	}
}

// TestWarmEvaluateWithAllocations: with its scratch warm an evaluation
// into a caller's ciphertext allocates the closure of the fan-out over
// the middle sums and nothing else — nothing per product, per middle sum
// or per baby-step group (tile, weights, inner sums and accumulators live
// in the lanes) and nothing per ladder level: the nine levels of the
// three ladders at t = 257 all run the one worker function the scratch
// built when it was fitted, so the count does not grow with log bs.
// (AllocsPerRun measures at GOMAXPROCS = 1; a fan-out that does split
// also pays its goroutines.)
func TestWarmEvaluateWithAllocations(t *testing.T) {
	ctx, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	fe, err := NewEvaluator(ctx, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	ct := enc.Encrypt(cod.EncodeSlots(make([]int64, ctx.N)))
	sc, out := NewScratch(), ctx.NewCiphertext()
	run := func() {
		if err := fe.EvaluateInto(ev, sc, ct, out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(10, run)
	t.Logf("warm EvaluateInto: %v allocations", n)
	if n > 1 {
		t.Fatalf("warm EvaluateInto allocates %v times per run, want ≤ 1", n)
	}
}

// checkFailureThenRecovery runs a plan at t = 257 (13 × 5 × 4) on a warm
// scratch with one of the scratch's ciphertexts swapped for one at another
// level, which every bfv call refuses: the evaluation must return that
// error, and the same scratch, the ciphertext restored, must then give the
// bytes it gave before.
func checkFailureThenRecovery(t *testing.T, slot func(sc *Scratch) **bfv.Ciphertext) {
	t.Helper()
	full, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	low, err := full.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewEvaluator(full, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	if fe.split != (split{bs: 13, g1: 5, g2: 4, gs: 20}) {
		t.Fatalf("chosen split %+v, want 13 × 5 × 4", fe.split)
	}
	vals := make([]int64, full.N)
	for i := range vals {
		vals[i] = int64(i*5%257) - 128
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))
	sc, want, got := NewScratch(), full.NewCiphertext(), full.NewCiphertext()
	if err := fe.EvaluateInto(ev, sc, ct, want); err != nil {
		t.Fatal(err)
	}
	p := slot(sc)
	good := *p
	*p = low.NewCiphertext()
	if err := fe.EvaluateInto(ev, sc, ct, got); err == nil || !strings.Contains(err.Error(), "operand at level 3") {
		t.Fatalf("a ciphertext at another level: EvaluateInto returned %v", err)
	}
	*p = good
	if err := fe.EvaluateInto(ev, sc, ct, got); err != nil {
		t.Fatalf("after the failed evaluation: %v", err)
	}
	if !bytes.Equal(serializeCT(t, got), serializeCT(t, want)) {
		t.Fatal("after the failed evaluation the scratch gives a different result")
	}
}

// TestLadderFailureLeavesScratchUsable injects a failure inside a
// parallel ladder level: the rung — 7 of the baby ladder (level 5 … 8,
// the second lane's half at two workers), 4 of the y ladder, 2 of the z
// ladder — is at another level, so its finish is refused with the product
// still in the lane's accumulator.
func TestLadderFailureLeavesScratchUsable(t *testing.T) {
	for name, rung := range map[string]func(sc *Scratch) **bfv.Ciphertext{
		"x^7": func(sc *Scratch) **bfv.Ciphertext { return &sc.powers[7] },
		"y^4": func(sc *Scratch) **bfv.Ciphertext { return &sc.ys[4] },
		"z^2": func(sc *Scratch) **bfv.Ciphertext { return &sc.zs[2] },
	} {
		t.Run(name, func(t *testing.T) { checkFailureThenRecovery(t, rung) })
	}
}

// lutFromPoly tabulates the polynomial with the given coefficients over
// Z_t; interpolating the table gives the coefficients back, so a test can
// choose which blocks of the split have terms.
func lutFromPoly(tq uint64, coeffs []uint64) *LUT {
	tm := ring.NewModulus(tq)
	l := &LUT{T: tq, Table: make([]uint64, tq)}
	for x := range l.Table {
		l.Table[x] = evalPoly(coeffs, uint64(x), tm)
	}
	return l
}

// TestEvaluateSparsePlans: the middle sums follow the plan's lists of
// giant steps that have a term. At t = 257 the split is 13 × 5 × 4: giant
// step a is digit a₁ = a mod 5 of middle sum a₂ = a / 5, a group is four
// rows, and the ladders are 12 + 4 + 2 products. A dense polynomial gives
// every middle sum four products by powers of y and the last three one by
// a power of z; a polynomial living in step 7 = 2 + 5·1 gives one product
// by y², one finish and one product by z; one living in step 5 = 0 + 5·1
// gives a middle sum that is only its inner sum, never finished; one with
// step 7 empty and every c_{a·bs} = 0 gives a middle sum of three
// products and inner sums without constants; one whose steps 5 … 9 are
// empty has no second middle sum; and one with only the constants c_{a·bs}
// has inner sums that are constants, multiplied like any other.
func TestEvaluateSparsePlans(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
	rng := rand.New(rand.NewPCG(31, 32))
	dense := make([]uint64, 257)
	for i := range dense {
		dense[i] = 1 + rng.Uint64N(256)
	}
	only := func(keep func(a, b int) bool) []uint64 {
		c := make([]uint64, 257)
		for i := range c {
			if keep(i/13, i%13) {
				c[i] = dense[i]
			}
		}
		return c
	}
	for _, c := range []struct {
		name               string
		coeffs             []uint64
		products, finishes int // beyond the 18 of the ladders
		scalars            int
	}{
		{"dense", dense, 16 + 3, 3 + 1, 257 - 20},
		{"one step under y", only(func(a, b int) bool { return a == 7 && b%3 == 1 }), 1 + 1, 1 + 1, 4},
		{"one step under no y", only(func(a, b int) bool { return a == 5 && b%3 == 1 }), 1, 1, 4},
		{"empty step, no constants", only(func(a, b int) bool { return a != 7 && b != 0 }), 15 + 3, 3 + 1, 257 - 20 - 12},
		{"empty middle sum", only(func(a, b int) bool { return a/5 != 1 }), 12 + 2, 2 + 1, 257 - 65 - 15},
		{"constants only", only(func(a, b int) bool { return b == 0 }), 16 + 3, 3 + 1, 0},
	} {
		fe := checkLookup(t, c.name, ctx, enc, dec, ev, cod, lutFromPoly(257, c.coeffs))
		if fe.split != (split{bs: 13, g1: 5, g2: 4, gs: 20}) {
			t.Fatalf("chosen split %+v, want 13 × 5 × 4", fe.split)
		}
		if fe.CMults != 18+c.products || fe.finishes != 18+c.finishes || fe.SMults != c.scalars {
			t.Errorf("%s: %d CMults, %d finishes, %d SMults; want %d, %d, %d", c.name, fe.CMults, fe.finishes, fe.SMults, 18+c.products, 18+c.finishes, c.scalars)
		}
	}
}

// TestGroupFailureLeavesScratchUsable injects a failure inside a middle
// sum, after the ladders are built and with products already in the
// lane's accumulators: the second inner sum of lane 0 is at another
// level, so a group's matrix call is refused; or the ciphertext lane 0
// finishes its middle sums into is, so the finish of mid₁ is refused with
// its four products accumulated and those of mid₀ in the lane's part of
// the final sum.
func TestGroupFailureLeavesScratchUsable(t *testing.T) {
	for name, slot := range map[string]func(sc *Scratch) **bfv.Ciphertext{
		"inner sum":  func(sc *Scratch) **bfv.Ciphertext { return &sc.lanes.Get(0).sums[1] },
		"middle sum": func(sc *Scratch) **bfv.Ciphertext { return &sc.lanes.Get(0).mid },
	} {
		t.Run(name, func(t *testing.T) { checkFailureThenRecovery(t, slot) })
	}
}

func TestFBSModulusMismatch(t *testing.T) {
	ctx, _, _, _, _ := fbsKit(t, 5, 3, 257)
	if _, err := NewEvaluator(ctx, ReLULUT(17)); err == nil {
		t.Fatal("modulus mismatch accepted")
	}
}

func TestHomomorphicFBSFullAthenaT(t *testing.T) {
	// The full t = 65537 table at reduced ring degree: the exact
	// Athena-scale FBS (split 158 × 26 × 16, CMult depth 18 like the flat
	// 257 × 256) exercised end to end in software.
	if testing.Short() {
		t.Skip("full-t FBS is slow; run without -short")
	}
	ctx, enc, dec, ev, cod := fbsKit(t, 5, 10, 65537)
	scale := 1.0 / 512.0
	lut := NewLUT(65537, func(x int64) int64 {
		// w7a7-style fused ReLU+remap: 17-bit MAC -> 7-bit activation.
		if x < 0 {
			return 0
		}
		y := int64(float64(x)*scale + 0.5)
		if y > 127 {
			y = 127
		}
		return y
	})
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	if fe.split != (split{bs: 158, g1: 26, g2: 16, gs: 415}) {
		t.Fatalf("chosen split %+v, want 158 × 26 × 16", fe.split)
	}
	checkDenseCounts(t, fe, 610, 765)
	vals := make([]int64, ctx.N)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range vals {
		vals[i] = int64(rng.Uint64N(1<<17)) - (1 << 16)
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))
	out, err := fe.Evaluate(ev, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := cod.DecodeSlots(dec.Decrypt(out))
	for i, v := range vals {
		if got[i] != lut.Lookup(v) {
			t.Fatalf("slot %d: FBS(%d)=%d want %d (budget %v)", i, v, got[i], lut.Lookup(v), dec.NoiseBudget(out))
		}
	}
	t.Logf("full-t FBS: %d CMult, %d SMult, %d HAdd", fe.CMults, fe.SMults, fe.HAdds)
}

// TestAppendTableIsTable: AppendTable lays down the span's ends and then
// exactly the words f takes on it, after whatever dst already holds; a
// span that covers Z_t is the centered Z_t, whose words are NewLUT's
// table in centered order.
func TestAppendTableIsTable(t *testing.T) {
	f := func(x int64) int64 { return 3*x*x - x + 7 }
	words := func(lo, hi int64, vals ...uint64) []byte {
		b := binary.LittleEndian.AppendUint64([]byte("prefix"), uint64(lo))
		b = binary.LittleEndian.AppendUint64(b, uint64(hi))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	for _, tm := range []uint64{5, 257, 12289} {
		m := ring.NewModulus(tm)
		half := int64(tm / 2)
		var full []uint64
		table := NewLUT(tm, f).Table
		for x := -half; x <= half; x++ {
			full = append(full, table[m.ReduceInt64(x)])
		}
		if got := AppendTable([]byte("prefix"), tm, -3*int64(tm), 1, f); !bytes.Equal(got, words(-half, half, full...)) {
			t.Fatalf("t=%d: the full span's words differ from NewLUT's table", tm)
		}
		// [2, 3] is widened to hold 0.
		if got := AppendTable([]byte("prefix"), tm, 2, 3, f); !bytes.Equal(got, words(0, 3, m.Reduce(7), m.Reduce(9), m.Reduce(17), m.Reduce(31))) {
			t.Fatalf("t=%d: the span [0, 3] has the words %v", tm, got)
		}
	}
}
