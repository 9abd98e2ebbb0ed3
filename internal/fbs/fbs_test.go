package fbs

import (
	"bytes"
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
	if bs*gs < 257 {
		t.Fatalf("BSGS split %d×%d does not cover the table", bs, gs)
	}
	// The plan's operation counts, derived flat instead of block by
	// block: 16 + 14 ladder products and one per giant step a ≥ 1; one
	// scalar product per nonzero coefficient but c_0; and, with B block
	// products, (inner terms − B) additions inside the inner sums plus
	// (B + remaining terms + [c_0 ≠ 0] − 1) to combine the result: one
	// less than there are nonzero coefficients.
	scalars, wantAdds := 0, -1
	for i, c := range lut.Interpolate() {
		if c != 0 && i > 0 {
			scalars++
		}
		if c != 0 {
			wantAdds++
		}
	}
	if fe.CMults != 45 || fe.SMults != scalars || fe.HAdds != wantAdds {
		t.Fatalf("plan counts %d CMult, %d SMult, %d HAdd; want 45, %d, %d", fe.CMults, fe.SMults, fe.HAdds, scalars, wantAdds)
	}
	t.Logf("FBS t=257: %d CMult, %d SMult, %d HAdd", fe.CMults, fe.SMults, fe.HAdds)
}

// checkLookup evaluates lut on a ciphertext covering every input value
// and requires slot-wise Evaluate == LUT.Lookup.
func checkLookup(t *testing.T, name string, ctx *bfv.Context, enc *bfv.Encryptor, dec *bfv.Decryptor, ev *bfv.Evaluator, cod *bfv.Encoder, lut *LUT) *Evaluator {
	t.Helper()
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, ctx.N)
	for i := range vals {
		vals[i] = ctx.TMod.Centered(uint64(i*7) % lut.T)
	}
	out, err := fe.Evaluate(ev, enc.Encrypt(cod.EncodeSlots(vals)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := cod.DecodeSlots(dec.Decrypt(out))
	for i, v := range vals {
		if got[i] != lut.Lookup(v) {
			t.Fatalf("%s slot %d: FBS(%d)=%d want %d (budget %v)", name, i, v, got[i], lut.Lookup(v), dec.NoiseBudget(out))
		}
	}
	return fe
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
// shape: N = 512, t = 12289 (bs = gs = 111), nine of ten 55-bit limbs.
// 110 + 109 ladder products and 110 block products; one scalar product
// per coefficient but c_0 = 0; 110 baby-step groups of four rows leave a
// group of two.
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
	if fe.CMults != 329 || fe.SMults != 12288 || fe.HAdds != 12287 {
		t.Fatalf("plan counts %d CMult, %d SMult, %d HAdd; want 329, 12288, 12287", fe.CMults, fe.SMults, fe.HAdds)
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

// TestEvaluateInGroups: when the giant-step sum has more products than
// the context's sum capacity (15 against 7 here: N = 32, four 55-bit
// primes), it is finished in several groups and still exact.
func TestEvaluateInGroups(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKitBits(t, 5, 55, 4, 257)
	const products = 15 // gs − 1 at t = 257
	if c := ctx.SumCapacity(); c >= products {
		t.Fatalf("sum capacity %d holds all %d block products; the test needs a smaller one", c, products)
	}
	checkLookup(t, "relu/4", ctx, enc, dec, ev, cod, NewLUT(257, func(x int64) int64 { return max(x, 0) / 4 }))
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
// allocates the ciphertext it returns (five objects) and the closure of
// the giant-step fan-out — nothing per product or per baby-step group (tile, weights and inner sums live
// in the lanes) and nothing per ladder level: the nine levels of the two
// ladders at t = 257 all run the one worker function the scratch built
// when it was fitted, so the count does not grow with log bs.
// (AllocsPerRun measures at GOMAXPROCS = 1; a fan-out that does split
// also pays its goroutines.)
func TestWarmEvaluateWithAllocations(t *testing.T) {
	ctx, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	fe, err := NewEvaluator(ctx, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	ct := enc.Encrypt(cod.EncodeSlots(make([]int64, ctx.N)))
	sc := NewScratch()
	run := func() {
		if _, err := fe.EvaluateWith(ev, sc, ct); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(10, run)
	t.Logf("warm EvaluateWith: %v allocations", n)
	if n > 6 {
		t.Fatalf("warm EvaluateWith allocates %v times per run, want ≤ 6", n)
	}
}

// TestLadderFailureLeavesScratchUsable injects a failure inside a
// parallel ladder level — rung 7 of the baby ladder (level 5 … 8, the
// second lane's half at two workers) is swapped for a ciphertext at
// another level, so its finish is refused with the product still in the
// lane's accumulator. The evaluation must return that error, and the
// same scratch, its rung restored, must then evaluate correctly.
func TestLadderFailureLeavesScratchUsable(t *testing.T) {
	full, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	low, err := full.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewEvaluator(full, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, full.N)
	for i := range vals {
		vals[i] = int64(i*5%257) - 128
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))
	want, err := fe.Evaluate(ev, ct)
	if err != nil {
		t.Fatal(err)
	}

	sc := NewScratch()
	if _, err := fe.EvaluateWith(ev, sc, ct); err != nil {
		t.Fatal(err)
	}
	good := sc.powers[7]
	sc.powers[7] = low.NewCiphertext()
	if _, err := fe.EvaluateWith(ev, sc, ct); err == nil || !strings.Contains(err.Error(), "operand at level 3") {
		t.Fatalf("a rung at another level: EvaluateWith returned %v", err)
	}
	sc.powers[7] = good
	got, err := fe.EvaluateWith(ev, sc, ct)
	if err != nil {
		t.Fatalf("after the failed evaluation: %v", err)
	}
	if !bytes.Equal(serializeCT(t, got), serializeCT(t, want)) {
		t.Fatal("after the failed evaluation the scratch gives a different result")
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

// TestEvaluateSparsePlans: the baby-step groups follow the plan's list of
// giant steps that have an inner sum. At t = 257 (bs = 17, gs = 16; a
// group is four rows): a dense polynomial gives 15 blocks in groups of 4,
// 4, 4, 3 — more groups than the two lanes of this host; a polynomial
// living in one block gives one group of one — fewer; one with an empty
// block in the middle and every c_{a·bs} = 0 gives 14 blocks and a tail
// without constants; and one with only constants c_{a·bs} has no block
// product at all.
func TestEvaluateSparsePlans(t *testing.T) {
	ctx, enc, dec, ev, cod := fbsKit(t, 6, 6, 257)
	rng := rand.New(rand.NewPCG(31, 32))
	dense := make([]uint64, 257)
	for i := range dense {
		dense[i] = 1 + rng.Uint64N(256)
	}
	oneBlock := make([]uint64, 257)
	for b := 1; b < 17; b += 3 {
		oneBlock[5*17+b] = 1 + rng.Uint64N(256)
	}
	gaps := append([]uint64(nil), dense...)
	for i := range gaps {
		if i%17 == 0 || i/17 == 7 {
			gaps[i] = 0
		}
	}
	constants := make([]uint64, 257)
	for a := 0; a < 16; a++ {
		constants[a*17] = 1 + rng.Uint64N(256)
	}
	for _, c := range []struct {
		name   string
		coeffs []uint64
		blocks int
	}{
		{"dense", dense, 15},
		{"one block", oneBlock, 1},
		{"empty block, no constants", gaps, 14},
		{"constants only", constants, 0},
	} {
		fe := checkLookup(t, c.name, ctx, enc, dec, ev, cod, lutFromPoly(257, c.coeffs))
		if len(fe.blocks) != c.blocks || fe.CMults != 30+c.blocks {
			t.Errorf("%s: %d blocks, %d CMults; want %d, %d", c.name, len(fe.blocks), fe.CMults, c.blocks, 30+c.blocks)
		}
	}
}

// TestGroupFailureLeavesScratchUsable injects a failure inside a
// baby-step group: the second inner sum of lane 0 is swapped for a
// ciphertext at another level, so the group's matrix call is refused
// after the ladders are built and with other lanes' products already
// accumulated. The evaluation must return that error, and the same
// scratch, the ciphertext restored, must then evaluate correctly.
func TestGroupFailureLeavesScratchUsable(t *testing.T) {
	full, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	low, err := full.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewEvaluator(full, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, full.N)
	for i := range vals {
		vals[i] = int64(i*5%257) - 128
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))
	sc := NewScratch()
	want, err := fe.EvaluateWith(ev, sc, ct)
	if err != nil {
		t.Fatal(err)
	}
	ln := sc.lanes.Get(0)
	good := ln.sums[1]
	ln.sums[1] = low.NewCiphertext()
	if _, err := fe.EvaluateWith(ev, sc, ct); err == nil || !strings.Contains(err.Error(), "operand at level 3") {
		t.Fatalf("an inner sum at another level: EvaluateWith returned %v", err)
	}
	ln.sums[1] = good
	got, err := fe.EvaluateWith(ev, sc, ct)
	if err != nil {
		t.Fatalf("after the failed evaluation: %v", err)
	}
	if !bytes.Equal(serializeCT(t, got), serializeCT(t, want)) {
		t.Fatal("after the failed evaluation the scratch gives a different result")
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
	// Athena-scale FBS (bs = gs = 256, CMult depth ~17) exercised end to
	// end in software.
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
