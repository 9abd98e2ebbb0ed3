package lwe

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"athena/internal/ring"
)

const (
	wireTestQ     = uint64(65537)
	wireTestSigma = 3.2
)

func wireTestCiphertext(t *testing.T) (Ciphertext, []byte) {
	t.Helper()
	sk := NewSecretKey(32, 11)
	ct := Encrypt(sk, 1234, wireTestQ, wireTestSigma, NewStream(12))
	var buf bytes.Buffer
	if err := WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	return ct, buf.Bytes()
}

func TestLWECiphertextRoundTrip(t *testing.T) {
	ct, blob := wireTestCiphertext(t)
	back, err := ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if back.Q != ct.Q || back.B != ct.B || len(back.A) != len(ct.A) {
		t.Fatal("ciphertext header changed in round trip")
	}
	for i := range ct.A {
		if back.A[i] != ct.A[i] {
			t.Fatalf("mask coefficient %d changed", i)
		}
	}
}

func TestKeySwitchKeyRoundTrip(t *testing.T) {
	k := wireTestKey()
	var buf bytes.Buffer
	if err := WriteKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ReadKey(&buf, ring.NewRowStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.SwitchPlan != k.SwitchPlan || !slices.Equal(back.w, k.w) {
		t.Fatal("keyswitch key changed in round trip")
	}
}

// wireTestKey is a key of the smallest ring, N = 4 → n = 2, at wireTestQ.
func wireTestKey() *KeySwitchKey {
	return NewKeySwitchKey(NewSecretKey(4, 31), NewSecretKey(2, 32), wireTestQ, 16, wireTestSigma, 33)
}

// checkInvariants asserts the decode-time guarantees: a successfully
// read ciphertext always has a usable modulus and reduced components.
func checkInvariants(t *testing.T, ct Ciphertext) {
	t.Helper()
	if _, err := ring.TryNewModulus(ct.Q); err != nil {
		t.Fatalf("decoded ciphertext has unusable modulus: %v", err)
	}
	if ct.B >= ct.Q {
		t.Fatalf("decoded body %d not reduced mod %d", ct.B, ct.Q)
	}
	for i, a := range ct.A {
		if a >= ct.Q {
			t.Fatalf("decoded mask coefficient %d (%d) not reduced mod %d", i, a, ct.Q)
		}
	}
}

// Truncated wire bytes must yield errors — never panics, never a
// partially filled ciphertext.
func TestLWEWireTruncation(t *testing.T) {
	_, blob := wireTestCiphertext(t)
	for l := 0; l < len(blob); l++ {
		if _, err := ReadCiphertext(bytes.NewReader(blob[:l])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", l, len(blob))
		}
	}
}

// Every single-bit corruption must decode to an error or to a
// ciphertext that still satisfies the range invariants.
func TestLWEWireBitFlips(t *testing.T) {
	_, blob := wireTestCiphertext(t)
	for off := 0; off < len(blob); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), blob...)
			mut[off] ^= 1 << bit
			ct, err := ReadCiphertext(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			checkInvariants(t, ct)
		}
	}
}

// Out-of-range header and payload words must be rejected outright.
func TestLWEWireRejectsOutOfRange(t *testing.T) {
	_, blob := wireTestCiphertext(t)
	patch := func(off int, v uint64) []byte {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(mut[off:], v)
		return mut
	}
	// Offsets: magic 0, version 8, Q 16, dim 24, A[0] 32.
	cases := map[string][]byte{
		"zero modulus":          patch(16, 0),
		"unit modulus":          patch(16, 1),
		"oversized modulus":     patch(16, 1<<63),
		"mask coeff >= Q":       patch(32, wireTestQ),
		"implausible dimension": patch(24, 1<<21),
	}
	for name, mut := range cases {
		if _, err := ReadCiphertext(bytes.NewReader(mut)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestKeySwitchKeyWireRejectsBadHeader(t *testing.T) {
	k := wireTestKey()
	var buf bytes.Buffer
	if err := WriteKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	patch := func(off int, v uint64) []byte {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(mut[off:], v)
		return mut
	}
	// Offsets: magic 0, version 8, q 16, base 24, digits 32, N 40, n 48,
	// the seed 56 to 88, then B_0.
	cases := map[string][]byte{
		"matrix key version": patch(8, 1),
		"unseeded version":   patch(8, 2),
		"truncated seed":     blob[:72],
		"zero modulus":       patch(16, 0),
		"base below two":     patch(24, 1),
		"zero digits":        patch(32, 0),
		"huge digits":        patch(32, 65),
		"huge dimensions":    patch(40, 1<<21),
		"other modulus":      patch(16, wireTestQ+2),
		"other ring degree":  patch(40, 8),
		"other output":       patch(48, 1),
		"coefficient ≥ q":    patch(88, wireTestQ),
		"inflated header":    inflatedKSKHeader(k),
	}
	for name, mut := range cases {
		if _, err := k.ReadKey(bytes.NewReader(mut), ring.NewRowStream(nil)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// inflatedKSKHeader is a bare 56-byte header that keeps k's modulus,
// base and digits but claims a ring of degree 2^20 and 2^20 outputs: a
// reader that trusted it would allocate a 2^20-coefficient key before
// meeting EOF.
func inflatedKSKHeader(k *KeySwitchKey) []byte {
	return keyHeader(k.Q, k.Base, uint64(k.Digits), 1<<20, 1<<20)
}

func keyHeader(q, base, digits, n, dim uint64) []byte {
	var b []byte
	for _, v := range []uint64{magicKSK, keyWireVer, q, base, digits, n, dim} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestKeySwitchKeyHeaderCheckedBeforeAllocation: the reader compares the
// header with the plan before it allocates, so the inflated header costs
// the heap next to nothing, and a header of the right shape with no
// payload costs one key.
func TestKeySwitchKeyHeaderCheckedBeforeAllocation(t *testing.T) {
	k := wireTestKey()
	var buf bytes.Buffer
	if err := WriteKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"inflated header":       inflatedKSKHeader(k),
		"header without a pair": buf.Bytes()[:56],
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := k.ReadKey(bytes.NewReader(blob), ring.NewRowStream(nil))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: reader allocated %d bytes before failing", name, grew)
		}
	}
}

// FuzzReadKeySwitchKey: arbitrary bytes against a plan must yield an
// error or a key of that plan with every word reduced, its A_d the rows
// of its seed, and the wire form re-encoding to the bytes read — never a
// panic. testdata/fuzz holds a whole seeded key, one cut inside its
// seed, the inflated header, and two headers of the right shape whose
// base is not the plan's: one not a power of two, one past the
// exactness bound.
func FuzzReadKeySwitchKey(f *testing.F) {
	k := wireTestKey()
	var buf bytes.Buffer
	if err := WriteKey(k, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:56])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := k.ReadKey(bytes.NewReader(data), ring.NewRowStream(nil))
		if err != nil {
			return
		}
		if got.SwitchPlan != k.SwitchPlan || len(got.w) != 2*k.words() {
			t.Fatalf("decoded key of plan %+v and %d words", got.SwitchPlan, len(got.w))
		}
		for i, x := range got.w[:k.words()] {
			if x >= got.Q {
				t.Fatalf("decoded key word %d (%d) not reduced mod %d", i, x, got.Q)
			}
		}
		want := &KeySwitchKey{SwitchPlan: got.SwitchPlan, Seed: got.Seed, w: make([]uint64, len(got.w))}
		want.expand(ring.NewRowStream(nil))
		for d := 0; d < got.Digits; d++ {
			a := (2*d + 1) * got.N
			if !slices.Equal(got.w[a:a+got.N], want.w[a:a+got.N]) {
				t.Fatalf("digit %d: A is not the rows of the key's seed", d)
			}
		}
		var again bytes.Buffer
		if err := WriteKey(got, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("the decoded key re-encodes to other bytes")
		}
	})
}

// FuzzLWEReadCiphertext: arbitrary attacker bytes must produce either an
// error or a ciphertext satisfying the range invariants — never a panic.
func FuzzLWEReadCiphertext(f *testing.F) {
	_, blob := wireTestCiphertextF(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := ReadCiphertext(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkInvariants(t, ct)
	})
}

func wireTestCiphertextF(f *testing.F) (Ciphertext, []byte) {
	f.Helper()
	sk := NewSecretKey(32, 11)
	ct := Encrypt(sk, 1234, wireTestQ, wireTestSigma, NewStream(12))
	var buf bytes.Buffer
	if err := WriteCiphertext(ct, &buf); err != nil {
		f.Fatal(err)
	}
	return ct, buf.Bytes()
}
