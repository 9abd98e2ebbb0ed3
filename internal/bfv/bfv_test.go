package bfv

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"athena/internal/ring"
)

// testContext builds a small but functional parameter set. t=65537 is
// 1 mod 2N for every logN ≤ 15, so batching is always available.
func testContext(t testing.TB, logN, limbs int) *Context {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(50, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(Parameters{LogN: logN, Qi: primes, T: 65537})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

type testKit struct {
	ctx *Context
	sk  *SecretKey
	pk  *PublicKey
	enc *Encryptor
	dec *Decryptor
	ev  *Evaluator
	cod *Encoder
}

func newTestKit(t testing.TB, logN, limbs int, rotations []int) *testKit {
	t.Helper()
	ctx := testContext(t, logN, limbs)
	kg := NewKeyGenerator(ctx, 1234)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	els := RotationGaloisElements(ctx, rotations)
	els = append(els, ring.GaloisElementConjugate(ctx.N))
	keys := kg.GenKeySet(sk, els)
	return &testKit{
		ctx: ctx,
		sk:  sk,
		pk:  pk,
		enc: NewEncryptor(ctx, pk, 77),
		dec: NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, keys),
		cod: NewEncoder(ctx),
	}
}

func randVals(n int, bound int64, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64N(uint64(2*bound))) - bound
	}
	return v
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	vals := randVals(k.ctx.N, 1000, 1)
	pt := k.cod.EncodeCoeffs(vals)
	ct := k.enc.Encrypt(pt)
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(ct))
	for i, want := range vals {
		if got[i] != want {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want)
		}
	}
	if b := k.dec.NoiseBudget(ct); b < 50 {
		t.Fatalf("fresh ciphertext budget %v suspiciously low", b)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	a := randVals(k.ctx.N, 500, 2)
	b := randVals(k.ctx.N, 500, 3)
	cta := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	ctb := k.enc.Encrypt(k.cod.EncodeCoeffs(b))

	sum := k.cod.DecodeCoeffs(k.dec.Decrypt(k.ev.Add(cta, ctb)))
	diff := k.cod.DecodeCoeffs(k.dec.Decrypt(k.ev.Sub(cta, ctb)))
	neg := k.cod.DecodeCoeffs(k.dec.Decrypt(k.ev.Neg(cta)))
	for i := range a {
		if sum[i] != a[i]+b[i] {
			t.Fatalf("add coeff %d: %d want %d", i, sum[i], a[i]+b[i])
		}
		if diff[i] != a[i]-b[i] {
			t.Fatalf("sub coeff %d: %d want %d", i, diff[i], a[i]-b[i])
		}
		if neg[i] != -a[i] {
			t.Fatalf("neg coeff %d: %d want %d", i, neg[i], -a[i])
		}
	}
}

func TestAddPlain(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	a := randVals(k.ctx.N, 100, 4)
	b := randVals(k.ctx.N, 100, 5)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	out := k.ev.AddPlain(ct, k.cod.EncodeCoeffs(b))
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Fatalf("coeff %d: %d want %d", i, got[i], a[i]+b[i])
		}
	}
}

// negacyclicConvolve is the plaintext oracle for coefficient-encoded
// multiplication: c = a·b mod (X^N+1) mod t, centered.
func negacyclicConvolve(a, b []int64, tm ring.Modulus) []int64 {
	n := len(a)
	acc := make([]uint64, n)
	for i, ai := range a {
		av := tm.ReduceInt64(ai)
		if av == 0 {
			continue
		}
		for j, bj := range b {
			bv := tm.ReduceInt64(bj)
			p := tm.Mul(av, bv)
			k := i + j
			if k < n {
				acc[k] = tm.Add(acc[k], p)
			} else {
				acc[k-n] = tm.Sub(acc[k-n], p)
			}
		}
	}
	out := make([]int64, n)
	for i, v := range acc {
		out[i] = tm.Centered(v)
	}
	return out
}

func TestMulPlainIsNegacyclicConvolution(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	a := randVals(k.ctx.N, 120, 6)
	b := randVals(k.ctx.N, 120, 7)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	pm := k.cod.LiftToMul(k.cod.EncodeCoeffs(b))
	out := k.ev.MulPlain(ct, pm)
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	want := negacyclicConvolve(a, b, k.ctx.TMod)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: %d want %d", i, got[i], want[i])
		}
	}
	if bud := k.dec.NoiseBudget(out); bud <= 0 {
		t.Fatalf("budget exhausted after one PMult: %v", bud)
	}
}

func TestMulPlainAndAddAccumulates(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	a := randVals(k.ctx.N, 50, 8)
	b := randVals(k.ctx.N, 50, 9)
	c := randVals(k.ctx.N, 50, 10)
	cta := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	pmb := k.cod.LiftToMul(k.cod.EncodeCoeffs(b))
	pmc := k.cod.LiftToMul(k.cod.EncodeCoeffs(c))
	acc := k.ctx.NewCiphertext()
	k.ev.MulPlainAndAdd(cta, pmb, acc)
	k.ev.MulPlainAndAdd(cta, pmc, acc)
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(acc))
	wb := negacyclicConvolve(a, b, k.ctx.TMod)
	wc := negacyclicConvolve(a, c, k.ctx.TMod)
	for i := range wb {
		want := k.ctx.TMod.Centered(k.ctx.TMod.ReduceInt64(wb[i] + wc[i]))
		if got[i] != want {
			t.Fatalf("coeff %d: %d want %d", i, got[i], want)
		}
	}
}

func TestMulScalar(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	a := randVals(k.ctx.N, 100, 11)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	tm := k.ctx.TMod
	for _, scalar := range []uint64{0, 1, 2, 100, 65536 /* ≡ -1 */} {
		out := k.ev.MulScalar(ct, scalar)
		got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
		for i := range a {
			want := tm.Centered(tm.Mul(tm.ReduceInt64(a[i]), tm.Reduce(scalar)))
			if got[i] != want {
				t.Fatalf("scalar %d coeff %d: %d want %d", scalar, i, got[i], want)
			}
		}
	}
}

func TestCiphertextMul(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	a := randVals(k.ctx.N, 100, 12)
	b := randVals(k.ctx.N, 100, 13)
	cta := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	ctb := k.enc.Encrypt(k.cod.EncodeCoeffs(b))
	out, err := k.ev.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	want := negacyclicConvolve(a, b, k.ctx.TMod)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: %d want %d", i, got[i], want[i])
		}
	}
	if bud := k.dec.NoiseBudget(out); bud <= 0 {
		t.Fatalf("budget exhausted after one CMult: %v", bud)
	}
}

func TestMulChainDepth(t *testing.T) {
	// Repeated squaring of the all-ones constant: checks noise survives a
	// few multiplicative levels at 4 limbs.
	k := newTestKit(t, 5, 4, nil)
	one := make([]int64, 1)
	one[0] = 2
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(one))
	want := int64(2)
	for depth := 1; depth <= 3; depth++ {
		var err error
		ct, err = k.ev.Mul(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		want = want * want % int64(k.ctx.Params.T)
		got := k.cod.DecodeCoeffs(k.dec.Decrypt(ct))
		if got[0] != k.ctx.TMod.Centered(uint64(want)) {
			t.Fatalf("depth %d: got %d want %d (budget %v)", depth, got[0], want, k.dec.NoiseBudget(ct))
		}
	}
}

func TestBatchEncodeDecode(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	vals := randVals(k.ctx.N, int64(k.ctx.Params.T/2)-1, 14)
	pt := k.cod.EncodeSlots(vals)
	got := k.cod.DecodeSlots(pt)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: %d want %d", i, got[i], vals[i])
		}
	}
}

func TestBatchedMulIsSlotwise(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	a := randVals(k.ctx.N, 250, 15)
	b := randVals(k.ctx.N, 250, 16)
	cta := k.enc.Encrypt(k.cod.EncodeSlots(a))
	ctb := k.enc.Encrypt(k.cod.EncodeSlots(b))
	out, err := k.ev.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(out))
	tm := k.ctx.TMod
	for i := range a {
		want := tm.Centered(tm.Mul(tm.ReduceInt64(a[i]), tm.ReduceInt64(b[i])))
		if got[i] != want {
			t.Fatalf("slot %d: %d want %d", i, got[i], want)
		}
	}
}

func TestBatchedPlainMulIsSlotwise(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	a := randVals(k.ctx.N, 250, 17)
	b := randVals(k.ctx.N, 250, 18)
	ct := k.enc.Encrypt(k.cod.EncodeSlots(a))
	pm := k.cod.LiftToMul(k.cod.EncodeSlots(b))
	got := k.cod.DecodeSlots(k.dec.Decrypt(k.ev.MulPlain(ct, pm)))
	tm := k.ctx.TMod
	for i := range a {
		want := tm.Centered(tm.Mul(tm.ReduceInt64(a[i]), tm.ReduceInt64(b[i])))
		if got[i] != want {
			t.Fatalf("slot %d: %d want %d", i, got[i], want)
		}
	}
}

func TestRotateRows(t *testing.T) {
	k := newTestKit(t, 6, 3, []int{1, 2, -1, 5})
	n := k.ctx.N
	row := n / 2
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	ct := k.enc.Encrypt(k.cod.EncodeSlots(vals))
	for _, rot := range []int{1, 2, -1, 5} {
		out, err := k.ev.RotateRows(ct, rot)
		if err != nil {
			t.Fatal(err)
		}
		got := k.cod.DecodeSlots(k.dec.Decrypt(out))
		for i := 0; i < n; i++ {
			r := i / row
			j := i % row
			want := vals[r*row+((j+rot)%row+row)%row]
			if got[i] != want {
				t.Fatalf("rot %d slot %d: got %d want %d", rot, i, got[i], want)
			}
		}
	}
}

func TestRotateColumnsSwapsRows(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	n := k.ctx.N
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	ct := k.enc.Encrypt(k.cod.EncodeSlots(vals))
	out, err := k.ev.RotateColumns(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(out))
	row := n / 2
	for i := 0; i < row; i++ {
		if got[i] != vals[i+row] || got[i+row] != vals[i] {
			t.Fatalf("slot %d: rows not swapped", i)
		}
	}
}

func TestMissingKeysErrors(t *testing.T) {
	ctx := testContext(t, 5, 3)
	kg := NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(ctx, pk, 6)
	ev := NewEvaluator(ctx, nil)
	ct := enc.EncryptZero()
	if _, err := ev.Mul(ct, ct); err == nil {
		t.Fatal("Mul without relin key should error")
	}
	if _, err := ev.RotateRows(ct, 1); err == nil {
		t.Fatal("rotation without galois keys should error")
	}
	ev2 := NewEvaluator(ctx, &KeySet{Relin: kg.GenRelinearizationKey(sk), Galois: map[uint64]*GaloisKey{}})
	if _, err := ev2.RotateRows(ct, 3); err == nil {
		t.Fatal("rotation with missing element should error")
	}
}

func TestNoiseBudgetDecreasesWithDepth(t *testing.T) {
	k := newTestKit(t, 5, 4, nil)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs([]int64{3}))
	b0 := k.dec.NoiseBudget(ct)
	ct2, _ := k.ev.Mul(ct, ct)
	b1 := k.dec.NoiseBudget(ct2)
	if b1 >= b0 {
		t.Fatalf("budget did not decrease: %v -> %v", b0, b1)
	}
}

func TestContextValidation(t *testing.T) {
	primes, _ := ring.GenerateNTTPrimes(50, 5, 2)
	if _, err := NewContext(Parameters{LogN: 1, Qi: primes, T: 65537}); err == nil {
		t.Fatal("accepted absurd logN")
	}
	if _, err := NewContext(Parameters{LogN: 5, Qi: primes, T: 65536}); err == nil {
		t.Fatal("accepted composite plaintext modulus")
	}
	ctx, err := NewContext(Parameters{LogN: 5, Qi: primes, T: 97}) // 97-1=96, not 1 mod 64
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Batching() {
		t.Fatal("t=97 cannot batch at N=32")
	}
}

// TestTensorBasisSizedFromInequality builds a chain under a 50-bit
// plaintext prime, where the extension basis has to absorb fifty bits
// more than the chain: at every level B must satisfy B > t·N·Q + 2, the
// condition under which the rescaled tensor product is centered modulo B
// and converts back to Q exactly, and a product of full-range messages
// must decrypt to the negacyclic convolution modulo t.
func TestTensorBasisSizedFromInequality(t *testing.T) {
	const logN, limbs = 5, 5
	qi, err := ring.GenerateNTTPrimes(55, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ring.GenerateNTTPrimes(50, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(Parameters{LogN: logN, Qi: qi, T: tp[0]})
	if err != nil {
		t.Fatal(err)
	}
	for L := 1; L <= limbs; L++ {
		c, err := ctx.AtLevel(L)
		if err != nil {
			t.Fatal(err)
		}
		bound := new(big.Int).Mul(c.QBig, c.TBig)
		bound.Lsh(bound, logN).Add(bound, big.NewInt(2))
		b := big.NewInt(1)
		for _, m := range c.RingB.Moduli {
			b.Mul(b, new(big.Int).SetUint64(m.Q))
		}
		if b.Cmp(bound) <= 0 {
			t.Fatalf("level %d: B has %d bits, t·N·Q + 2 has %d", L, b.BitLen(), bound.BitLen())
		}
	}

	kg := NewKeyGenerator(ctx, 1234)
	sk := kg.GenSecretKey()
	enc, cod := NewEncryptor(ctx, kg.GenPublicKey(sk), 77), NewEncoder(ctx)
	a := randVals(ctx.N, int64(tp[0]/2), 31)
	b := randVals(ctx.N, int64(tp[0]/2), 32)
	prod, err := NewEvaluator(ctx, kg.GenKeySet(sk, nil)).Mul(enc.Encrypt(cod.EncodeCoeffs(a)), enc.Encrypt(cod.EncodeCoeffs(b)))
	if err != nil {
		t.Fatal(err)
	}
	got := NewDecryptor(ctx, sk).Decrypt(prod)
	for i, want := range negacyclicModT(a, b, ctx.TMod) {
		if got.Coeffs[i] != want {
			t.Fatalf("coeff %d: %d want %d", i, got.Coeffs[i], want)
		}
	}
}
