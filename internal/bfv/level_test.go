package bfv

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"athena/internal/ring"
)

// TestAtLevelIdentityAndCache pins the AtLevel contract: the full level
// returns the context itself, reduced levels are built once and cached,
// and out-of-range levels error.
func TestAtLevelIdentityAndCache(t *testing.T) {
	ctx := testContext(t, 6, 4)
	if got, err := ctx.AtLevel(4); err != nil || got != ctx {
		t.Fatalf("AtLevel(full) = (%p, %v), want the context itself", got, err)
	}
	c2, err := ctx.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Level() != 2 || len(c2.Params.Qi) != 2 {
		t.Fatalf("child level %d", c2.Level())
	}
	for i, q := range c2.Params.Qi {
		if q != ctx.Params.Qi[i] {
			t.Fatalf("child modulus %d is %d, want prefix %d", i, q, ctx.Params.Qi[i])
		}
	}
	again, err := ctx.AtLevel(2)
	if err != nil || again != c2 {
		t.Fatalf("AtLevel(2) not cached: (%p vs %p, %v)", again, c2, err)
	}
	for _, bad := range []int{0, -1, 5} {
		if _, err := ctx.AtLevel(bad); err == nil {
			t.Fatalf("AtLevel(%d) should error", bad)
		}
	}
}

// TestModDownDecryptEquivalence is the round-trip property pin: dropping
// to every reachable level preserves the decrypted plaintext exactly and
// leaves a positive noise budget. This is the invariant the engine's
// level schedule rides on.
func TestModDownDecryptEquivalence(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	vals := randVals(k.ctx.N, 1000, 7)
	want := k.cod.DecodeCoeffs(k.dec.Decrypt(k.enc.Encrypt(k.cod.EncodeCoeffs(vals))))
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))
	for L := k.ctx.Level() - 1; L >= 2; L-- {
		down, err := k.ctx.ModDown(ct, L)
		if err != nil {
			t.Fatal(err)
		}
		if down.Level() != L {
			t.Fatalf("ModDown to %d produced level %d", L, down.Level())
		}
		got := k.cod.DecodeCoeffs(k.dec.Decrypt(down))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("level %d coeff %d: got %d want %d", L, i, got[i], want[i])
			}
		}
		if b := k.dec.NoiseBudget(down); b <= 0 {
			t.Fatalf("level %d budget %v", L, b)
		}
	}
}

// TestModDownChainedEqualsDirect checks stepping down one level at a
// time decrypts identically to the direct drop (the rescale roundings
// differ by at most the footprint the budget absorbs).
func TestModDownChainedEqualsDirect(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	vals := randVals(k.ctx.N, 500, 11)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))
	step := ct
	var err error
	for L := k.ctx.Level() - 1; L >= 2; L-- {
		if step, err = k.ctx.ModDown(step, L); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := k.cod.DecodeCoeffs(k.dec.Decrypt(step))
	b := k.cod.DecodeCoeffs(k.dec.Decrypt(direct))
	for i := range a {
		if a[i] != b[i] || a[i] != vals[i] {
			t.Fatalf("coeff %d: chained %d direct %d want %d", i, a[i], b[i], vals[i])
		}
	}
}

// TestModDownEdgeCases: same level is a no-op returning the argument,
// raising errors.
func TestModDownEdgeCases(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	ct := k.enc.EncryptZero()
	same, err := k.ctx.ModDown(ct, ct.Level())
	if err != nil || same != ct {
		t.Fatalf("same-level ModDown = (%p, %v), want the argument back", same, err)
	}
	down, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.ctx.ModDown(down, 3); err == nil {
		t.Fatal("raising a level should error")
	}
}

// TestReducedLevelArithmetic runs the evaluator over a reduced-level
// context with full-chain keys: plaintext multiply, ciphertext multiply
// with relinearization, and additions must all decrypt to the mod-t
// reference. This pins the prefix-slicing contract (full-level key polys
// against reduced-limb operands) end to end.
func TestReducedLevelArithmetic(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	ctx2, err := k.ctx.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := NewEvaluator(ctx2, k.ev.Keys())
	cod2 := NewEncoder(ctx2)

	va := randVals(k.ctx.N, 50, 21)
	vb := randVals(k.ctx.N, 50, 22)
	ca, err := k.ctx.ModDown(k.enc.Encrypt(k.cod.EncodeCoeffs(va)), 2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := k.ctx.ModDown(k.enc.Encrypt(k.cod.EncodeCoeffs(vb)), 2)
	if err != nil {
		t.Fatal(err)
	}

	tm := k.ctx.TMod

	// Exact reference through a scalar plaintext: multiply by the
	// constant polynomial 3 and add cb.
	three := make([]int64, k.ctx.N)
	three[0] = 3
	lin := mulPlain(ev2, ca, cod2.LiftToMul(cod2.EncodeCoeffs(three)))
	ev2.AddInPlace(lin, cb)
	gotLin := k.cod.DecodeCoeffs(k.dec.Decrypt(lin))
	for i := range va {
		if want := 3*va[i] + vb[i]; gotLin[i] != want {
			t.Fatalf("coeff %d: got %d want %d", i, gotLin[i], want)
		}
	}

	// Ciphertext-ciphertext multiply with relinearization at level 2,
	// checked against the plaintext negacyclic product mod t.
	cc, err := ev2.Mul(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	gotCC := k.dec.Decrypt(cc)
	ref := negacyclicModT(va, vb, tm)
	for i := range ref {
		if gotCC.Coeffs[i] != ref[i] {
			t.Fatalf("ct-ct coeff %d: got %d want %d", i, gotCC.Coeffs[i], ref[i])
		}
	}
	if b := k.dec.NoiseBudget(cc); b <= 0 {
		t.Fatalf("post-multiply budget %v", b)
	}
}

// negacyclicModT computes the negacyclic polynomial product of a and b
// over Z_t.
func negacyclicModT(a, b []int64, tm interface {
	ReduceInt64(int64) uint64
	Mul(uint64, uint64) uint64
	Add(uint64, uint64) uint64
	Sub(uint64, uint64) uint64
}) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := range a {
		ai := tm.ReduceInt64(a[i])
		for j := range b {
			p := tm.Mul(ai, tm.ReduceInt64(b[j]))
			k := i + j
			if k < n {
				out[k] = tm.Add(out[k], p)
			} else {
				out[k-n] = tm.Sub(out[k-n], p)
			}
		}
	}
	return out
}

// TestReducedLevelAutomorphism checks slot rotation via full-chain
// Galois keys on a reduced-level ciphertext: the level-corrected digit
// decomposition must reproduce the full-level rotation exactly.
func TestReducedLevelAutomorphism(t *testing.T) {
	k := newTestKit(t, 6, 4, []int{1})
	if !k.ctx.Batching() {
		t.Skip("batching unavailable")
	}
	vals := randVals(k.ctx.N, 100, 31)
	ct := k.enc.Encrypt(k.cod.EncodeSlots(vals))

	wantCT, err := rotateRows(k.ev, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := k.cod.DecodeSlots(k.dec.Decrypt(wantCT))

	ctx2, err := k.ctx.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := NewEvaluator(ctx2, k.ev.Keys())
	down, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotCT, err := rotateRows(ev2, down, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gotCT.Level() != 2 {
		t.Fatalf("rotation raised level to %d", gotCT.Level())
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(gotCT))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestReducedLevelSwitchModulus checks the Athena step-② rescale accepts
// a reduced-level ciphertext and produces the same mod-q2 output as the
// full-level path up to the rescale rounding (decryptable equality at
// the q2 scale is pinned by the core engine tests; here we pin that the
// call dispatches and the scale survives).
func TestReducedLevelSwitchModulus(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	vals := randVals(k.ctx.N, 100, 41)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))
	down, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	q2 := k.ctx.Params.T << 12
	a, b, err := k.ctx.SwitchModulus(down, q2)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the message from the (a, b) pair: the phase b + a·s over
	// Z_q2 holds m at scale q2/t, so rounding by t/q2 must return vals.
	n := k.ctx.N
	s := k.sk.Signed
	tmod := k.ctx.Params.T
	q2i := int64(q2)
	center := func(x uint64) int64 {
		v := int64(x)
		if v > q2i/2 {
			v -= q2i
		}
		return v
	}
	phase := make([]int64, n)
	for i := 0; i < n; i++ {
		ai := center(a[i])
		for j := 0; j < n; j++ {
			p := ai * s[j]
			if kidx := i + j; kidx < n {
				phase[kidx] += p
			} else {
				phase[kidx-n] -= p
			}
		}
	}
	scale := q2i / int64(tmod)
	for j := 0; j < n; j++ {
		ph := (phase[j]%q2i + center(b[j])) % q2i
		if ph > q2i/2 {
			ph -= q2i
		} else if ph < -q2i/2 {
			ph += q2i
		}
		num := ph + scale/2
		m := num / scale
		if num < 0 && num%scale != 0 {
			m-- // floor division: Go truncates toward zero
		}
		mm := m % int64(tmod)
		if mm < 0 {
			mm += int64(tmod)
		}
		want := vals[j] % int64(tmod)
		if want < 0 {
			want += int64(tmod)
		}
		if mm != want {
			t.Fatalf("coeff %d: rescaled phase decodes to %d, want %d", j, mm, want)
		}
	}
	if len(a) != n || len(b) != n {
		t.Fatalf("rescaled pair has lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] >= q2 || b[i] >= q2 {
			t.Fatalf("coefficient %d outside [0, q2)", i)
		}
	}
}

// TestCiphertextWireRoundTripReducedLevel pins the level-aware wire
// format: a reduced-level ciphertext serializes with its own limb count
// and round-trips bit-identically through the full-level context.
func TestCiphertextWireRoundTripReducedLevel(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.ctx.N, 100, 51)))
	down, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := k.ctx.WriteCiphertext(down, &buf); err != nil {
		t.Fatal(err)
	}
	full := 2 * k.ctx.N * len(k.ctx.Params.Qi) * 8
	if buf.Len() >= full {
		t.Fatalf("reduced ciphertext serialized to %d bytes, not below full-level %d", buf.Len(), full)
	}
	got, err := k.ctx.ReadCiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level() != 2 {
		t.Fatalf("round-trip level %d", got.Level())
	}
	if !got.C0.Equal(down.C0) || !got.C1.Equal(down.C1) {
		t.Fatal("round-trip not bit-identical")
	}
}

// TestRescalesMatchBigIntegers pins ModDown from every level to every
// lower one, SwitchModulus at s = t and s = t·2^12, and Decrypt, at every
// level of a four-limb chain, to round(s·x/Q) computed in big integers
// from the centered coefficients.
func TestRescalesMatchBigIntegers(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.ctx.N, 1000, 61)))
	// scaled returns round(num·x/den) for every centered coefficient x of
	// p, coefficient domain over ctx.
	scaled := func(ctx *Context, p ring.Poly, num, den *big.Int) []*big.Int {
		den2 := new(big.Int).Lsh(den, 1)
		xs := ctx.BasisQ.ReconstructPoly(p)
		for _, x := range xs {
			x.Mul(x, num).Lsh(x, 1).Add(x, den).Div(x, den2)
		}
		return xs
	}
	coeffs := func(ctx *Context, p ring.Poly) ring.Poly {
		c := p.Clone()
		ctx.RingQ.INTT(c)
		return c
	}
	for from := 4; from >= 1; from-- {
		src, err := k.ctx.AtLevel(from)
		if err != nil {
			t.Fatal(err)
		}
		x, err := k.ctx.ModDown(ct, from)
		if err != nil {
			t.Fatal(err)
		}
		for L := 1; L < from; L++ {
			dst, err := k.ctx.AtLevel(L)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.ctx.ModDown(x, L)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range [2]ring.Poly{x.C0, x.C1} {
				want := dst.RingQ.NewPoly()
				dst.BasisQ.ReducePoly(scaled(src, coeffs(src, in), dst.QBig, src.QBig), want)
				dst.RingQ.NTT(want)
				if !want.Equal([2]ring.Poly{got.C0, got.C1}[i]) {
					t.Fatalf("ModDown %d → %d: component %d differs", from, L, i)
				}
			}
		}
		for _, q2 := range []uint64{k.ctx.Params.T, k.ctx.Params.T << 12} {
			a, b, err := k.ctx.SwitchModulus(x, q2)
			if err != nil {
				t.Fatal(err)
			}
			q2Big := new(big.Int).SetUint64(q2)
			for _, c := range [2]struct {
				in  ring.Poly
				got []uint64
			}{{x.C1, a}, {x.C0, b}} {
				for j, v := range scaled(src, coeffs(src, c.in), q2Big, src.QBig) {
					if want := v.Mod(v, q2Big).Uint64(); c.got[j] != want {
						t.Fatalf("SwitchModulus level %d q2 %d: coefficient %d = %d, want %d", from, q2, j, c.got[j], want)
					}
				}
			}
		}
		got := k.dec.Decrypt(x)
		for j, v := range scaled(src, k.dec.phase(src, x), src.TBig, src.QBig) {
			if want := v.Mod(v, src.TBig).Uint64(); got.Coeffs[j] != want {
				t.Fatalf("Decrypt level %d: coefficient %d = %d, want %d", from, j, got.Coeffs[j], want)
			}
		}
	}
	// A switch target must lie below every prime of the chain.
	for _, q2 := range []uint64{0, 1, k.ctx.Params.Qi[0], ^uint64(0)} {
		if _, _, err := k.ctx.SwitchModulus(ct, q2); err == nil {
			t.Errorf("SwitchModulus accepted q2 = %d", q2)
		}
	}
}

// TestRescaleConstantsConcurrent builds the ModDown and SwitchModulus
// constants of a fresh context from several goroutines at once, as an
// engine's worker lanes do, and requires the serial result from each.
func TestRescaleConstantsConcurrent(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.ctx.N, 1000, 71)))
	q2 := k.ctx.Params.T << 12
	wantDown, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB, err := k.ctx.SwitchModulus(wantDown, q2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testContext(t, 6, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			down, err := fresh.ModDown(ct, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if !down.C0.Equal(wantDown.C0) || !down.C1.Equal(wantDown.C1) {
				t.Error("concurrent ModDown differs from the serial one")
			}
			a, b, err := fresh.SwitchModulus(down, q2)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range a {
				if a[i] != wantA[i] || b[i] != wantB[i] {
					t.Errorf("concurrent SwitchModulus differs at coefficient %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeysBornAtLevel: a switching key generated at level ℓ is, word
// for word, the level-ℓ prefix (AtLevel) of the full-chain key that a
// generator of the same seed draws in its place — seed, B and A — for
// the relinearization key and a Galois key
// at every ℓ in [1, L]; and a key set read back from the wire expands
// the same A from its seed.
func TestKeysBornAtLevel(t *testing.T) {
	ctx := testContext(t, 5, 4)
	g := RotationGaloisElements(ctx, []int{1})[0]
	gen := func(l int) (*SecretKey, *KeySet) {
		kg := NewKeyGenerator(ctx, 5)
		sk := kg.GenSecretKey()
		kg.GenPublicKey(sk)
		return sk, &KeySet{
			Relin:  kg.GenRelinearizationKey(sk, l),
			Galois: map[uint64]*GaloisKey{g: kg.GenGaloisKey(sk, g, l)},
		}
	}
	L := ctx.Level()
	_, full := gen(L)
	equal := func(a, b []ring.Poly) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	same := func(a, b *SwitchingKey) bool {
		return a.Seed == b.Seed && equal(a.B, b.B) && equal(a.A, b.A)
	}
	for l := 1; l <= L; l++ {
		_, born := gen(l)
		for _, c := range []struct {
			name       string
			born, full *SwitchingKey
		}{
			{"relinearization key", &born.Relin.SwitchingKey, &full.Relin.SwitchingKey},
			{"galois key", &born.Galois[g].SwitchingKey, &full.Galois[g].SwitchingKey},
		} {
			cut := c.full.AtLevel(l)
			if c.born.Level() != l || !same(c.born, &cut) {
				t.Fatalf("%s born at level %d is not the full-chain key's level-%d prefix", c.name, l, l)
			}
		}
		var buf bytes.Buffer
		if err := ctx.WriteKeySet(born, &buf); err != nil {
			t.Fatal(err)
		}
		back, err := ctx.ReadKeySet(&buf, ring.NewRowStream(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !same(&back.Relin.SwitchingKey, &born.Relin.SwitchingKey) || !same(&back.Galois[g].SwitchingKey, &born.Galois[g].SwitchingKey) {
			t.Fatalf("level %d: the key set read back differs from the one written", l)
		}
	}
	// The mask seeds are the keys' own: no two keys share one.
	if full.Relin.Seed == full.Galois[g].Seed {
		t.Fatal("two switching keys drew the same mask seed")
	}
}

// TestKeysAtLevelOfUse pins the level-ℓ key contract: a key cut to the
// level of the keyswitch that reads it (SwitchingKey.AtLevel) is the
// full-chain key's prefix word for word, travels through the key-set
// codec at that level, and drives the rotation and the product at that
// level to the same ciphertext bytes as the full-chain key. A keyswitch
// above the key's level is an error, never an index panic.
func TestKeysAtLevelOfUse(t *testing.T) {
	k := newTestKit(t, 6, 4, []int{1})
	if !k.ctx.Batching() {
		t.Skip("batching unavailable")
	}
	const l = 2
	fullKeys := k.ev.Keys()
	g := RotationGaloisElements(k.ctx, []int{1})[0]
	cut := &KeySet{
		Relin:  &RelinearizationKey{SwitchingKey: fullKeys.Relin.AtLevel(l)},
		Galois: map[uint64]*GaloisKey{g: {GaloisEl: g, SwitchingKey: fullKeys.Galois[g].AtLevel(l)}},
	}
	for i, p := range cut.Relin.B {
		if p.Level() != l || !p.Equal(ring.Poly{Coeffs: fullKeys.Relin.B[i].Coeffs[:l]}) {
			t.Fatalf("component %d is not the full-chain key's level-%d prefix", i, l)
		}
	}
	var buf bytes.Buffer
	if err := k.ctx.WriteKeySet(cut, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadKeySet(&buf, ring.NewRowStream(nil))
	if err != nil {
		t.Fatalf("level-%d key set refused: %v", l, err)
	}
	if back.Relin.Level() != l || back.Galois[g].Level() != l {
		t.Fatalf("levels %d, %d after the round trip, want %d", back.Relin.Level(), back.Galois[g].Level(), l)
	}

	ctxL, err := k.ctx.AtLevel(l)
	if err != nil {
		t.Fatal(err)
	}
	ct := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 100, 32)))
	down, err := k.ctx.ModDown(ct, l)
	if err != nil {
		t.Fatal(err)
	}
	bytesOf := func(ev *Evaluator) []byte {
		rot, err := rotateRows(ev, down, 1)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := ev.Mul(rot, down)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := k.ctx.WriteCiphertext(prod, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(bytesOf(NewEvaluator(ctxL, back)), bytesOf(NewEvaluator(ctxL, fullKeys))) {
		t.Fatalf("level-%d keys and full-chain keys disagree at level %d", l, l)
	}

	above := NewEvaluator(k.ctx, back)
	if _, err := rotateRows(above, ct, 1); err == nil {
		t.Fatalf("rotation at level %d under a level-%d key accepted", k.ctx.Level(), l)
	}
	if _, err := above.Mul(ct, ct); err == nil {
		t.Fatalf("product at level %d under a level-%d key accepted", k.ctx.Level(), l)
	}
}

// TestRescalesStageInCaller: ModDownWith and SwitchModulusInto give the
// bytes of ModDown and SwitchModulus, and once the caller's
// RescaleScratch has grown, SwitchModulusInto allocates nothing and
// ModDownWith only its result, however the calls alternate.
func TestRescalesStageInCaller(t *testing.T) {
	k := newTestKit(t, 6, 4, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(randVals(k.ctx.N, 1000, 9)))
	var sc RescaleScratch
	want, err := k.ctx.ModDown(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.ctx.ModDownWith(ct, 2, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
		t.Fatal("ModDownWith differs from ModDown")
	}
	const q2 = 65537 << 12
	wa, wb, err := k.ctx.SwitchModulus(got, q2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]uint64, k.ctx.N), make([]uint64, k.ctx.N)
	if err := k.ctx.SwitchModulusInto(got, q2, a, b, &sc); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != wa[i] || b[i] != wb[i] {
			t.Fatalf("SwitchModulusInto differs from SwitchModulus at %d", i)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := k.ctx.SwitchModulusInto(got, q2, a, b, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SwitchModulusInto allocates %v times per run, want 0", n)
	}
	dst, err := k.ctx.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	result := testing.AllocsPerRun(20, func() { dst.NewCiphertext() })
	if n := testing.AllocsPerRun(20, func() {
		if _, err := k.ctx.ModDownWith(ct, 2, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != result {
		t.Fatalf("ModDownWith allocates %v times per run, its result %v", n, result)
	}
}
