package bfv

import (
	"bytes"
	"testing"

	"athena/internal/ring"
)

func TestCiphertextRoundTrip(t *testing.T) {
	k := newTestKit(t, 6, 3, nil)
	vals := randVals(k.ctx.N, 1000, 51)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))

	var buf bytes.Buffer
	if err := k.ctx.WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadCiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ct.C0.Equal(back.C0) || !ct.C1.Equal(back.C1) {
		t.Fatal("ciphertext round trip changed polynomials")
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(back))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("decrypt after round trip: coeff %d", i)
		}
	}
}

func TestSecretKeyRoundTrip(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	var buf bytes.Buffer
	if err := k.ctx.WriteSecretKey(k.sk, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadSecretKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !k.sk.Value.Equal(back.Value) {
		t.Fatal("secret polynomial changed")
	}
	for i := range k.sk.Signed {
		if k.sk.Signed[i] != back.Signed[i] {
			t.Fatalf("signed coefficient %d changed", i)
		}
	}
	// The deserialized key must actually decrypt.
	dec := NewDecryptor(k.ctx, back)
	vals := randVals(k.ctx.N, 500, 52)
	ct := k.enc.Encrypt(k.cod.EncodeCoeffs(vals))
	got := k.cod.DecodeCoeffs(dec.Decrypt(ct))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatal("deserialized secret key cannot decrypt")
		}
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	var buf bytes.Buffer
	if err := k.ctx.WritePublicKey(k.pk, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadPublicKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Encrypting with the deserialized key must decrypt correctly.
	enc := NewEncryptor(k.ctx, back, 99)
	vals := randVals(k.ctx.N, 500, 53)
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(enc.Encrypt(k.cod.EncodeCoeffs(vals))))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatal("deserialized public key broken")
		}
	}
}

func TestKeySetRoundTrip(t *testing.T) {
	k := newTestKit(t, 5, 3, []int{1, 2})
	kg := NewKeyGenerator(k.ctx, 7)
	els := RotationGaloisElements(k.ctx, []int{1, 2})
	ks := kg.GenKeySet(k.sk, els)

	var buf bytes.Buffer
	if err := k.ctx.WriteKeySet(ks, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadKeySet(&buf, ring.NewRowStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.Relin == nil || len(back.Galois) != len(ks.Galois) {
		t.Fatal("key set shape changed")
	}
	// The deserialized keys must drive a working evaluator.
	ev := NewEvaluator(k.ctx, back)
	a := randVals(k.ctx.N, 50, 54)
	b := randVals(k.ctx.N, 50, 55)
	cta := k.enc.Encrypt(k.cod.EncodeCoeffs(a))
	ctb := k.enc.Encrypt(k.cod.EncodeCoeffs(b))
	prod, err := ev.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := k.cod.DecodeCoeffs(k.dec.Decrypt(prod))
	want := negacyclicConvolve(a, b, k.ctx.TMod)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("Mul with deserialized relin key broken")
		}
	}
	cts := k.enc.Encrypt(k.cod.EncodeSlots(a))
	if _, err := rotateRows(ev, cts, 1); err != nil {
		t.Fatal(err)
	}
}

func TestWireRejectsMismatchedContext(t *testing.T) {
	k := newTestKit(t, 5, 3, nil)
	ct := k.enc.EncryptZero()
	var buf bytes.Buffer
	if err := k.ctx.WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	// A context with a different degree must refuse the blob.
	primes, _ := ring.GenerateNTTPrimes(50, 6, 3)
	other, err := NewContext(Parameters{LogN: 6, Qi: primes, T: 65537})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ReadCiphertext(&buf); err == nil {
		t.Fatal("mismatched context accepted ciphertext")
	}
	// Wrong magic.
	buf.Reset()
	if err := k.ctx.WriteSecretKey(k.sk, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ctx.ReadCiphertext(&buf); err == nil {
		t.Fatal("secret-key blob accepted as ciphertext")
	}
	// Truncated stream.
	buf.Reset()
	if err := k.ctx.WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
	if _, err := k.ctx.ReadCiphertext(trunc); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}
