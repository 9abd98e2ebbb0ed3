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
	skIn := NewSecretKey(8, 21)
	skOut := NewSecretKey(4, 22)
	k := NewKeySwitchKey(skIn, skOut, wireTestQ, 256, wireTestSigma, 23)
	var buf bytes.Buffer
	if err := WriteKeySwitchKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKeySwitchKey(&buf, k.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if back.Shape() != k.Shape() || back.Base != k.Base {
		t.Fatal("keyswitch key header changed in round trip")
	}
	if !slices.Equal(back.M, k.M) {
		t.Fatal("keyswitch matrix changed in round trip")
	}
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
	skIn := NewSecretKey(4, 31)
	skOut := NewSecretKey(2, 32)
	k := NewKeySwitchKey(skIn, skOut, wireTestQ, 16, wireTestSigma, 33)
	var buf bytes.Buffer
	if err := WriteKeySwitchKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	patch := func(off int, v uint64) []byte {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(mut[off:], v)
		return mut
	}
	// Offsets: magic 0, version 8, q 16, base 24, digits 32, nIn 40, nOut 48.
	cases := map[string][]byte{
		"zero modulus":    patch(16, 0),
		"base below two":  patch(24, 1),
		"zero digits":     patch(32, 0),
		"huge digits":     patch(32, 65),
		"huge dimensions": patch(40, 1<<21),
		"other modulus":   patch(16, wireTestQ+2),
		"other input dim": patch(40, 8),
		"other output":    patch(48, 3),
		"inflated header": inflatedKSKHeader(k),
	}
	for name, mut := range cases {
		if _, err := ReadKeySwitchKey(bytes.NewReader(mut), k.Shape()); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// inflatedKSKHeader is a bare 56-byte header that keeps k's modulus,
// base and digits but claims 2^20 inputs and 2^20 outputs: a reader that
// trusted it would allocate the row table and a first 8 MiB row before
// meeting EOF.
func inflatedKSKHeader(k *KeySwitchKey) []byte {
	var b []byte
	for _, v := range []uint64{magicKSK, wireVer, k.Q, k.Base, uint64(k.Digits), 1 << 20, 1 << 20} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestKeySwitchKeyHeaderCheckedBeforeAllocation: the reader compares the
// header with the expected shape before it allocates, so the inflated
// header costs the heap next to nothing, and a header of the right shape
// with no payload costs one row.
func TestKeySwitchKeyHeaderCheckedBeforeAllocation(t *testing.T) {
	k := NewKeySwitchKey(NewSecretKey(4, 31), NewSecretKey(2, 32), wireTestQ, 16, wireTestSigma, 33)
	var buf bytes.Buffer
	if err := WriteKeySwitchKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"inflated header":     inflatedKSKHeader(k),
		"header without rows": buf.Bytes()[:56],
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadKeySwitchKey(bytes.NewReader(blob), k.Shape())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: reader allocated %d bytes before failing", name, grew)
		}
	}
}

// FuzzReadKeySwitchKey: arbitrary bytes against a fixed expected shape
// must yield an error or a key of exactly that shape with every word
// reduced — never a panic. testdata/fuzz holds the inflated header and
// two headers of the right shape whose base CheckBase rejects.
func FuzzReadKeySwitchKey(f *testing.F) {
	k := NewKeySwitchKey(NewSecretKey(4, 31), NewSecretKey(2, 32), wireTestQ, 16, wireTestSigma, 33)
	var buf bytes.Buffer
	if err := WriteKeySwitchKey(k, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:56])
	want := k.Shape()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadKeySwitchKey(bytes.NewReader(data), want)
		if err != nil {
			return
		}
		if got.Shape() != want {
			t.Fatalf("decoded shape %+v, want %+v", got.Shape(), want)
		}
		if len(got.M) != got.words() {
			t.Fatalf("decoded matrix of %d words, shape needs %d", len(got.M), got.words())
		}
		if err := CheckBase(got.Q, got.Base); err != nil {
			t.Fatalf("decoded key has a base the kernel cannot use: %v", err)
		}
		for i, x := range got.M {
			if x >= got.Q {
				t.Fatalf("decoded key word %d (%d) not reduced mod %d", i, x, got.Q)
			}
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
