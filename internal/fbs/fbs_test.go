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

func TestFFTPathMatchesNaive(t *testing.T) {
	// 257 is a Fermat prime: both interpolation paths must agree.
	const tq = 257
	tm := ring.NewModulus(tq)
	rng := rand.New(rand.NewPCG(9, 9))
	l := &LUT{T: tq, Table: make([]uint64, tq)}
	for k := range l.Table {
		l.Table[k] = rng.Uint64N(tq)
	}
	fft := l.powerSumsFFT(tm)
	naive := l.powerSumsNaive(tm)
	for j := range naive {
		if fft[j] != naive[j] {
			t.Fatalf("g_%d: FFT %d naive %d", j, fft[j], naive[j])
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

// TestEvaluateAtDigitNetShape runs one ReLU at the single_t12289
// workload's shape: N = 512, t = 12289 (bs = gs = 111), nine of ten
// 55-bit limbs.
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
	lut := ReLULUT(12289)
	fe, err := NewEvaluator(ctx, lut)
	if err != nil {
		t.Fatal(err)
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
// allocates the ciphertext it returns (five objects) and what the
// giant-step fan-out captures (its closure and the group cursor it
// shares with the loop) — nothing per product and nothing per ladder
// level: the nine levels of the two ladders at t = 257 all run the one
// worker function the scratch built when it was fitted, so the count
// does not grow with log bs. (AllocsPerRun measures at GOMAXPROCS = 1;
// a fan-out that does split also pays its goroutines.)
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
	if n > 8 {
		t.Fatalf("warm EvaluateWith allocates %v times per run, want ≤ 8", n)
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
