package bfv

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// Property-based tests on the scheme's homomorphic laws: for random
// message vectors the encrypted arithmetic must commute with plaintext
// arithmetic.

var (
	propOnce sync.Once
	propKit  *testKit
)

func propTestKit(t *testing.T) *testKit {
	t.Helper()
	propOnce.Do(func() { propKit = newTestKit(t, 5, 3, []int{1}) })
	return propKit
}

func smallVec(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64N(201)) - 100
	}
	return v
}

func TestQuickAdditiveHomomorphism(t *testing.T) {
	k := propTestKit(t)
	f := func(sa, sb uint64) bool {
		a := smallVec(k.ctx.N, sa)
		b := smallVec(k.ctx.N, sb)
		cta := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
		ctb := k.enc.Encrypt(k.cod.EncodeCoeffs(b))
		k.ev.AddInPlace(cta, ctb)
		got := k.cod.DecodeCoeffs(k.dec.Decrypt(cta))
		for i := range a {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickMultiplicativeHomomorphism(t *testing.T) {
	k := propTestKit(t)
	f := func(sa, sb uint64) bool {
		a := smallVec(k.ctx.N, sa)
		b := smallVec(k.ctx.N, sb)
		cta := k.enc.Encrypt(k.cod.EncodeSlots(a))
		ctb := k.enc.Encrypt(k.cod.EncodeSlots(b))
		prod, err := k.ev.Mul(cta, ctb)
		if err != nil {
			return false
		}
		got := k.cod.DecodeSlots(k.dec.Decrypt(prod))
		tm := k.ctx.TMod
		for i := range a {
			want := tm.Centered(tm.Mul(tm.ReduceInt64(a[i]), tm.ReduceInt64(b[i])))
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncryptDecryptIdentity(t *testing.T) {
	k := propTestKit(t)
	f := func(seed uint64) bool {
		v := smallVec(k.ctx.N, seed)
		got := k.cod.DecodeCoeffs(k.dec.Decrypt(k.enc.Encrypt(k.cod.EncodeCoeffs(v))))
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickSlotCoeffEncodersInverse(t *testing.T) {
	k := propTestKit(t)
	f := func(seed uint64) bool {
		v := smallVec(k.ctx.N, seed)
		pt := k.cod.EncodeSlots(v)
		got := k.cod.DecodeSlots(pt)
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		pt2 := k.cod.EncodeCoeffs(v)
		got2 := k.cod.DecodeCoeffs(pt2)
		for i := range v {
			if got2[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickRotationComposition(t *testing.T) {
	// rot(rot(x, 1), 1) == rot(x, 2) on encrypted data.
	ctx := testContext(t, 5, 3)
	kg := NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := kg.GenKeySet(sk, RotationGaloisElements(ctx, []int{1, 2}))
	enc := NewEncryptor(ctx, pk, 32)
	dec := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, keys)
	cod := NewEncoder(ctx)

	f := func(seed uint64) bool {
		v := smallVec(ctx.N, seed)
		ct := enc.Encrypt(cod.EncodeSlots(v))
		r1, err := rotateRows(ev, ct, 1)
		if err != nil {
			return false
		}
		r11, err := rotateRows(ev, r1, 1)
		if err != nil {
			return false
		}
		r2, err := rotateRows(ev, ct, 2)
		if err != nil {
			return false
		}
		a := cod.DecodeSlots(dec.Decrypt(r11))
		b := cod.DecodeSlots(dec.Decrypt(r2))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
