package pack

import (
	"math/rand/v2"
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/ring"
)

type kit struct {
	ctx *bfv.Context
	sk  *bfv.SecretKey
	kg  *bfv.KeyGenerator
	enc *bfv.Encryptor
	dec *bfv.Decryptor
	cod *bfv.Encoder
}

func newKit(t testing.TB, logN, limbs int) *kit {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(50, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := bfv.NewContext(bfv.Parameters{LogN: logN, Qi: primes, T: 65537})
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &kit{
		ctx: ctx,
		sk:  sk,
		kg:  kg,
		enc: bfv.NewEncryptor(ctx, pk, 22),
		dec: bfv.NewDecryptor(ctx, sk),
		cod: bfv.NewEncoder(ctx),
	}
}

func (k *kit) evaluator(els []uint64) *bfv.Evaluator {
	return bfv.NewEvaluator(k.ctx, k.kg.GenKeySet(k.sk, els))
}

// pack is PackInto into a fresh ciphertext on fresh staging.
func pack(p *Packer, ev *bfv.Evaluator, cts []lwe.Ciphertext) (*bfv.Ciphertext, error) {
	out := p.ctx.NewCiphertext()
	return out, p.PackInto(ev, p.NewScratch(), cts, out)
}

// apply is ApplyInto into a fresh ciphertext on fresh staging.
func apply(tr *Transform, ev *bfv.Evaluator, ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	out := tr.ctx.NewCiphertext()
	return out, tr.ApplyInto(ev, new(TransformScratch), ct, out)
}

// plainMatVec computes M·x mod t, centered.
func plainMatVec(m [][]uint64, x []int64, tm ring.Modulus) []int64 {
	out := make([]int64, len(m))
	for i := range m {
		var acc uint64
		for j := range m[i] {
			acc = tm.Add(acc, tm.Mul(m[i][j], tm.ReduceInt64(x[j])))
		}
		out[i] = tm.Centered(acc)
	}
	return out
}

func TestTransformMatchesPlainMatrix(t *testing.T) {
	k := newKit(t, 6, 4)
	n := k.ctx.N
	rng := rand.New(rand.NewPCG(7, 8))

	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
		for j := range m[i] {
			// Sparse-ish random matrix with small entries.
			if rng.Uint64N(4) == 0 {
				m[i][j] = rng.Uint64N(k.ctx.Params.T)
			}
		}
	}
	tr, err := CompileTransform(k.ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(tr.GaloisElements())

	x := make([]int64, n)
	for i := range x {
		x[i] = int64(rng.Uint64N(2000)) - 1000
	}
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(x))
	out, err := apply(tr, ev, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	want := plainMatVec(m, x, k.ctx.TMod)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
	if b := k.dec.NoiseBudget(out); b <= 0 {
		t.Fatalf("budget exhausted by transform: %v", b)
	}
}

func TestTransformIdentityAndZero(t *testing.T) {
	k := newKit(t, 5, 3)
	n := k.ctx.N
	id := make([][]uint64, n)
	zero := make([][]uint64, n)
	for i := range id {
		id[i] = make([]uint64, n)
		zero[i] = make([]uint64, n)
		id[i][i] = 1
	}
	x := randInts(n, 500, 31)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(x))

	trI, err := CompileTransform(k.ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(trI.GaloisElements())
	// One staging serves both transforms, refitted for the second, and
	// the zero map overwrites what the identity left in out.
	var sc TransformScratch
	out := k.ctx.NewCiphertext()
	if err := trI.ApplyInto(ev, &sc, ct, out); err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity transform broke coeff %d", i)
		}
	}

	trZ, err := CompileTransform(k.ctx, zero)
	if err != nil {
		t.Fatal(err)
	}
	if err := trZ.ApplyInto(ev, &sc, ct, out); err != nil {
		t.Fatal(err)
	}
	got = k.cod.DecodeCoeffs(k.dec.Decrypt(out))
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("zero transform produced %d at %d", got[i], i)
		}
	}
}

func randInts(n int, bound int64, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64N(uint64(2*bound))) - bound
	}
	return v
}

func TestS2CMovesSlotsToCoefficients(t *testing.T) {
	k := newKit(t, 6, 4)
	n := k.ctx.N
	vals := randInts(n, 3000, 41)
	ct := k.enc.Encrypt(k.cod.EncodeSlots(vals))

	tr, err := CompileTransform(k.ctx, S2CMatrix(k.ctx))
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(tr.GaloisElements())
	// out may alias ct: the input is read only while the babies are built.
	if err := tr.ApplyInto(ev, new(TransformScratch), ct, ct); err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(ct))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("coeff %d: got %d want slot value %d", i, got[i], vals[i])
		}
	}
}

func TestC2SMovesCoefficientsToSlots(t *testing.T) {
	k := newKit(t, 6, 4)
	n := k.ctx.N
	vals := randInts(n, 3000, 43)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))

	tr, err := CompileTransform(k.ctx, C2SMatrix(k.ctx))
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(tr.GaloisElements())
	out, err := apply(tr, ev, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(out))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %d want coefficient %d", i, got[i], vals[i])
		}
	}
}

func TestS2CAfterC2SIsIdentityMatrix(t *testing.T) {
	k := newKit(t, 5, 3)
	n := k.ctx.N
	s2c := S2CMatrix(k.ctx)
	c2s := C2SMatrix(k.ctx)
	tm := k.ctx.TMod
	// (S2C·C2S)[i][j] must be δ_ij.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc uint64
			for l := 0; l < n; l++ {
				acc = tm.Add(acc, tm.Mul(s2c[i][l], c2s[l][j]))
			}
			want := uint64(0)
			if i == j {
				want = 1
			}
			if acc != want {
				t.Fatalf("S2C·C2S[%d][%d] = %d", i, j, acc)
			}
		}
	}
}

func TestPackerRecoversLWEPhases(t *testing.T) {
	k := newKit(t, 6, 4)
	tq := k.ctx.Params.T
	lweSK := lwe.NewSecretKey(16, 51)
	p, err := NewPacker(k.ctx, k.enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())

	// Noiseless LWE ciphertexts make the packed slots exact.
	smp := lwe.NewStream(52)
	count := 48 // fewer than N to exercise padding
	msgs := make([]uint64, count)
	cts := make([]lwe.Ciphertext, count)
	for i := range cts {
		msgs[i] = smp.Uint64N(tq)
		cts[i] = lwe.Encrypt(lweSK, msgs[i], tq, 0, smp)
	}
	out, err := pack(p, ev, cts)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(out))
	tm := k.ctx.TMod
	for i := 0; i < count; i++ {
		want := tm.Centered(msgs[i])
		if got[i] != want {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want)
		}
	}
	for i := count; i < k.ctx.N; i++ {
		if got[i] != 0 {
			t.Fatalf("padding slot %d nonzero: %d", i, got[i])
		}
	}
	if b := k.dec.NoiseBudget(out); b < 10 {
		t.Fatalf("packed ciphertext budget too small: %v", b)
	}
}

// TestScratchPacksWithItsCaller passes one Scratch between two packers of
// different dimension and split: each call must pack with its receiver's
// keys and giant steps, whichever packer made the scratch.
func TestScratchPacksWithItsCaller(t *testing.T) {
	k := newKit(t, 6, 4)
	tq := k.ctx.Params.T
	var packers []*Packer
	var sks []*lwe.SecretKey
	var els []uint64
	for i, n := range []int{16, 32} {
		sk := lwe.NewSecretKey(n, uint64(61+i))
		p, err := NewPacker(k.ctx, k.enc, sk)
		if err != nil {
			t.Fatal(err)
		}
		packers, sks, els = append(packers, p), append(sks, sk), append(els, p.GaloisElements()...)
	}
	ev := k.evaluator(els)
	sc := packers[0].NewScratch()
	smp := lwe.NewStream(63)
	out := k.ctx.NewCiphertext()
	for _, i := range []int{1, 0, 1} {
		msgs := make([]uint64, 40)
		cts := make([]lwe.Ciphertext, len(msgs))
		for j := range cts {
			msgs[j] = smp.Uint64N(tq)
			cts[j] = lwe.Encrypt(sks[i], msgs[j], tq, 0, smp)
		}
		if err := packers[i].PackInto(ev, sc, cts, out); err != nil {
			t.Fatal(err)
		}
		got := k.cod.DecodeSlots(k.dec.Decrypt(out))
		for j := range msgs {
			if want := k.ctx.TMod.Centered(msgs[j]); got[j] != want {
				t.Fatalf("packer %d, slot %d: got %d want %d", i, j, got[j], want)
			}
		}
	}
}

func TestPackerNoisyPhases(t *testing.T) {
	// With real LWE noise the packed slots carry m + e: check |e| small.
	k := newKit(t, 6, 4)
	tq := k.ctx.Params.T
	lweSK := lwe.NewSecretKey(32, 53)
	p, err := NewPacker(k.ctx, k.enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(54)
	count := k.ctx.N
	msgs := make([]uint64, count)
	cts := make([]lwe.Ciphertext, count)
	for i := range cts {
		msgs[i] = smp.Uint64N(1 << 15)
		cts[i] = lwe.Encrypt(lweSK, msgs[i], tq, 3.2, smp)
	}
	out, err := pack(p, ev, cts)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeSlots(k.dec.Decrypt(out))
	tm := k.ctx.TMod
	for i := 0; i < count; i++ {
		diff := got[i] - tm.Centered(msgs[i])
		if diff > 25 || diff < -25 {
			t.Fatalf("slot %d: error %d beyond LWE noise bound", i, diff)
		}
	}
}

func TestPackerRejectsBadInput(t *testing.T) {
	k := newKit(t, 5, 3)
	lweSK := lwe.NewSecretKey(8, 55)
	p, err := NewPacker(k.ctx, k.enc, lweSK)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	if _, err := pack(p, ev, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := []lwe.Ciphertext{{A: make([]uint64, 4), Q: k.ctx.Params.T}}
	if _, err := pack(p, ev, bad); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	bad = []lwe.Ciphertext{{A: make([]uint64, 8), Q: 123}}
	if _, err := pack(p, ev, bad); err == nil {
		t.Fatal("wrong modulus accepted")
	}
	if _, err := NewPacker(k.ctx, k.enc, lwe.NewSecretKey(12, 56)); err == nil {
		t.Fatal("non-divisor dimension accepted")
	}
}

func TestBabySteps(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 4: 2, 16: 4, 64: 8, 256: 16, 2048: 32}
	for n, want := range cases {
		if got := BabySteps(n); got != want {
			t.Errorf("BabySteps(%d) = %d want %d", n, got, want)
		}
	}
}
