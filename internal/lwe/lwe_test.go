package lwe

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"athena/internal/bfv"
	"athena/internal/ring"
)

func TestEncryptDecryptPhase(t *testing.T) {
	const q = 1 << 20
	sk := NewSecretKey(128, 1)
	smp := NewStream(2)
	tm := ring.NewModulus(q)
	for i := 0; i < 50; i++ {
		// Embed message at scale q/256 so noise (a few units) is visible
		// but separable.
		msg := smp.Uint64N(256) * (q / 256)
		ct := Encrypt(sk, msg, q, 3.2, smp)
		phase := sk.Decrypt(ct)
		diff := tm.Centered(tm.Sub(phase, msg))
		if diff > 30 || diff < -30 {
			t.Fatalf("phase error %d too large", diff)
		}
	}
}

func TestSecretKeyDeterminism(t *testing.T) {
	a := NewSecretKey(64, 9)
	b := NewSecretKey(64, 9)
	for i := range a.S {
		if a.S[i] != b.S[i] {
			t.Fatal("same seed gave different keys")
		}
		if a.S[i] < -1 || a.S[i] > 1 {
			t.Fatal("non-ternary key coefficient")
		}
	}
}

func TestSampleExtractExact(t *testing.T) {
	// Build a noise-free RLWE pair by hand: b = m - a·s mod (X^N+1),
	// so that phase(extracted_i) must equal m_i exactly.
	const n = 64
	const q = 65537
	m := ring.NewModulus(q)
	smp := NewStream(3)
	skPoly := make([]int64, n)
	for i := range skPoly {
		skPoly[i] = int64(smp.IntN(3)) - 1
	}
	a := make([]uint64, n)
	msg := make([]uint64, n)
	for i := range a {
		a[i] = smp.Uint64N(q)
		msg[i] = smp.Uint64N(q)
	}
	// b = msg - a*s (negacyclic convolution).
	b := make([]uint64, n)
	copy(b, msg)
	for i := 0; i < n; i++ {
		if skPoly[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := a[j]
			if skPoly[i] < 0 {
				p = m.Neg(p)
			}
			k := i + j
			if k < n {
				b[k] = m.Sub(b[k], p)
			} else {
				b[k-n] = m.Add(b[k-n], p)
			}
		}
	}
	sk := &SecretKey{S: skPoly}
	cts := SampleExtract(RLWE{A: a, B: b, Q: q}, nil)
	if len(cts) != n {
		t.Fatalf("expected %d extractions", n)
	}
	for i, ct := range cts {
		if got := sk.Decrypt(ct); got != msg[i] {
			t.Fatalf("coeff %d: phase %d want %d", i, got, msg[i])
		}
	}
	// Subset extraction picks the right indices.
	subset := SampleExtract(RLWE{A: a, B: b, Q: q}, []int{5, 17, 63})
	for k, i := range []int{5, 17, 63} {
		if got := sk.Decrypt(subset[k]); got != msg[i] {
			t.Fatalf("subset %d: phase %d want %d", i, got, msg[i])
		}
	}
}

func TestLWEModSwitch(t *testing.T) {
	const q1 = uint64(1) << 28
	const q2 = uint64(65537)
	sk := NewSecretKey(256, 4)
	smp := NewStream(5)
	tm := ring.NewModulus(q2)
	scale := q1 / q2
	for i := 0; i < 30; i++ {
		msg := smp.Uint64N(q2)
		ct := Encrypt(sk, msg*scale, q1, 3.2, smp)
		sw := ModSwitch(ct, q2)
		phase := sk.Decrypt(sw)
		diff := tm.Centered(tm.Sub(phase, msg))
		if diff > 40 || diff < -40 {
			t.Fatalf("mod-switched phase error %d too large", diff)
		}
	}
}

func TestModSwitchRejectsUpscale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("upward modulus switch should panic")
		}
	}()
	ModSwitch(Ciphertext{A: []uint64{1}, B: 1, Q: 100}, 1000)
}

func TestDimensionKeySwitch(t *testing.T) {
	const q = uint64(1) << 32
	skIn := NewSecretKey(512, 6)
	skOut := NewSecretKey(64, 7)
	ksk := NewKeySwitchKey(skIn, skOut, q, 1<<4, 3.2, 8)
	smp := NewStream(9)
	tm := ring.NewModulus(q)
	scale := q / 65537
	for i := 0; i < 20; i++ {
		msg := smp.Uint64N(65537)
		ct := Encrypt(skIn, msg*scale, q, 3.2, smp)
		sw := ksk.NewSwitcher().Switch(ct)
		if len(sw.A) != 64 {
			t.Fatalf("output dimension %d", len(sw.A))
		}
		phase := skOut.Decrypt(sw)
		diff := tm.Centered(tm.Sub(phase, msg*scale))
		// Keyswitch noise: sqrt(N·digits)·base/2·sigma ≈ 2^13 at these
		// parameters; must stay well below scale/2 = 2^11... use a bound
		// relative to scale: the message must survive rounding.
		if got := (phase + scale/2) / scale % 65537; got != msg {
			t.Fatalf("message lost: got %d want %d (phase diff %d)", got, msg, diff)
		}
	}
}

// TestFullConversionBridge walks the complete Step ②-③ pipeline against
// real BFV ciphertexts: encrypt with coefficient encoding, switch the
// modulus down, sample-extract, dimension-switch, modulus-switch to t,
// and confirm each LWE phase equals the plaintext coefficient up to the
// paper's e_ms budget (~4 bits).
func TestFullConversionBridge(t *testing.T) {
	primes, err := ring.GenerateNTTPrimes(50, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := bfv.NewContext(bfv.Parameters{LogN: 9, Qi: primes, T: 65537})
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, 11)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(ctx, pk, 12)
	cod := bfv.NewEncoder(ctx)

	// Messages in the quantized-MAC range (17-bit signed, well inside t).
	vals := make([]int64, ctx.N)
	smp := NewStream(13)
	for i := range vals {
		vals[i] = int64(smp.Uint64N(1<<16)) - (1 << 15)
	}
	ct := enc.Encrypt(cod.EncodeCoeffs(vals))

	// Step ②: modulus switch Q -> qMid = t·2^12.
	const tPt = uint64(65537)
	qMid := tPt << 12
	a, b, err := ctx.SwitchModulus(ct, qMid)
	if err != nil {
		t.Fatal(err)
	}

	// Step ③: one switch to the embedding of a dimension-64 key, the
	// modulus switch to t, and extraction of a spread of indices. The
	// phase right after Step ② is checked on the plain extraction under
	// the ring secret (scale 2^12).
	rlweSK := &SecretKey{S: sk.Signed}
	rc := RLWE{A: a, B: b, Q: qMid}
	lweSK := NewSecretKey(64, 14)
	ksk := NewKeySwitchKey(rlweSK, lweSK, qMid, 1<<7, 3.2, 15)
	var idx []int
	for i := 0; i < ctx.N; i += 7 {
		idx = append(idx, i)
	}
	plain := SampleExtract(rc, idx)
	cts := make([]Ciphertext, len(idx))
	ksk.NewSwitcher().SwitchExtract(rc, idx, tPt, cts)

	tm := ring.NewModulus(tPt)
	mm := ring.NewModulus(qMid)
	maxErr := int64(0)
	for v, i := range idx {
		want := mm.ReduceInt64(vals[i] * (1 << 12))
		if d0 := mm.Centered(mm.Sub(rlweSK.Decrypt(plain[v]), want)); d0 > 1<<10 || d0 < -(1<<10) {
			t.Fatalf("post-extract phase error %d too large at %d", d0, i)
		}
		diff := tm.Centered(tm.Sub(lweSK.Decrypt(cts[v]), tm.ReduceInt64(vals[i])))
		if diff < 0 {
			diff = -diff
		}
		if diff > maxErr {
			maxErr = diff
		}
	}
	// Paper: e_ms typically within ~4 bits.
	if maxErr > 24 {
		t.Fatalf("final e_ms %d exceeds the ~4-5 bit budget", maxErr)
	}
	t.Logf("max |e_ms| after full conversion: %d", maxErr)
}

func TestLWESerializationRoundTrip(t *testing.T) {
	sk := NewSecretKey(32, 71)
	smp := NewStream(72)
	ct := Encrypt(sk, 1234, 65537, 3.2, smp)

	var buf bytes.Buffer
	if err := WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Q != ct.Q || back.B != ct.B || len(back.A) != len(ct.A) {
		t.Fatal("header changed")
	}
	for i := range ct.A {
		if back.A[i] != ct.A[i] {
			t.Fatal("mask changed")
		}
	}
	if sk.Decrypt(back) != sk.Decrypt(ct) {
		t.Fatal("phase changed")
	}
	// Truncation must error.
	buf.Reset()
	if err := WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCiphertext(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestKeySwitchKeySerialization(t *testing.T) {
	skIn := NewSecretKey(64, 73)
	skOut := NewSecretKey(16, 74)
	const q = uint64(1) << 30
	k := NewKeySwitchKey(skIn, skOut, q, 1<<6, 3.2, 75)

	var buf bytes.Buffer
	if err := WriteKey(k, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.ReadKey(&buf, ring.NewRowStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.w, k.w) {
		t.Fatal("the decoded key's wire or NTT form differs")
	}
	// The deserialized key must switch correctly.
	smp := NewStream(76)
	msg := uint64(5000) * (q / 65537)
	ct := Encrypt(skIn, msg, q, 3.2, smp)
	a := skOut.Decrypt(k.NewSwitcher().Switch(ct))
	b := skOut.Decrypt(back.NewSwitcher().Switch(ct))
	if a != b {
		t.Fatalf("switch results differ: %d vs %d", a, b)
	}
}

// TestSwitcherMatchesSwitch checks Switcher.Switch against the reference
// switch by schoolbook products, with several Switchers over one key
// running concurrently (the shape of the engine's lanes).
func TestSwitcherMatchesSwitch(t *testing.T) {
	skIn := NewSecretKey(64, 81)
	skOut := NewSecretKey(16, 82)
	const q = uint64(1) << 30
	k := NewKeySwitchKey(skIn, skOut, q, 1<<6, 3.2, 83)

	smp := NewStream(84)
	const n = 24
	cts := make([]Ciphertext, n)
	want := make([]Ciphertext, n)
	for i := range cts {
		cts[i] = Encrypt(skIn, uint64(i)*(q/65537), q, 3.2, smp)
		// ct is the extraction of coefficient N − 1 of the ring
		// ciphertext whose mask lists ct.A backwards.
		rc := RLWE{A: make([]uint64, k.N), B: make([]uint64, k.N), Q: q}
		for j, a := range cts[i].A {
			rc.A[k.N-1-j] = a
		}
		rc.B[k.N-1] = cts[i].B
		want[i] = extractOracle(k, rc, []int{k.N - 1}, q)[0]
	}

	got := make([]Ciphertext, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := k.NewSwitcher()
			for i := w; i < n; i += 4 {
				got[i] = sw.Switch(cts[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range got {
		if got[i].B != want[i].B || !slices.Equal(got[i].A, want[i].A) {
			t.Fatalf("ciphertext %d: Switcher result differs from the reference", i)
		}
	}
}
