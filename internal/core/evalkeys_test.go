package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"runtime"
	"testing"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

// testNet builds the tiny deterministic conv→FC network used across the
// eval-keys tests.
func evalKeysTestNet() *qnn.QNetwork {
	rng := rand.New(rand.NewPCG(3, 4))
	mk := func(shape coeffenc.ConvShape, act qnn.Activation, mult float64) *qnn.QConv {
		w := make([][][][]int64, shape.Cout)
		for co := range w {
			w[co] = make([][][]int64, shape.Cin)
			for ci := range w[co] {
				w[co][ci] = make([][]int64, shape.K)
				for i := range w[co][ci] {
					w[co][ci][i] = make([]int64, shape.K)
					for j := range w[co][ci][i] {
						w[co][ci][i][j] = int64(rng.IntN(3)) - 1
					}
				}
			}
		}
		return &qnn.QConv{Shape: shape, Weights: w, Bias: make([]int64, shape.Cout),
			Act: act, Multiplier: mult, ActBits: 4, MaxAcc: 120}
	}
	return &qnn.QNetwork{
		Name: "evalkeys-test", InC: 1, InH: 4, InW: 4, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			// The 1/16 first-layer multiplier keeps activations ≤ 3, so the
			// 32-input FC accumulator stays well inside t/2 = 128.
			mk(coeffenc.ConvShape{H: 4, W: 4, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(2*4*4, 3), qnn.ActNone, 1.0/4),
		}},
	}
}

// TestEvaluationEngineMatchesFullEngine exports eval keys from a full
// engine, rebuilds an evaluation-only engine from the wire bytes, and
// checks that the server-side engine produces ciphertexts the client
// decrypts to the same logits as a fully local run.
func TestEvaluationEngineMatchesFullEngine(t *testing.T) {
	p := TestParams()
	client, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := client.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	server, err := NewEvaluationEngineFromReader(p, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	net := evalKeysTestNet()
	x := qnn.NewIntTensor(1, 4, 4)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	in, err := client.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := server.EvaluateEncrypted(net, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptLogits(out)
	if err != nil {
		t.Fatal(err)
	}
	// The usual ±2 e_ms tolerance of single-image runs applies: the
	// server ran on uploaded keys, but the noise mechanics are unchanged.
	ref := net.ForwardInt(x).Data
	for i := range got {
		if d := got[i] - ref[i]; d < -2 || d > 2 {
			t.Fatalf("logit %d: evaluation engine %d, plaintext %d", i, got[i], ref[i])
		}
	}
}

// TestEvaluationEngineBatch runs the batched server entry point on an
// evaluation-only engine and checks each image's decrypted logits.
func TestEvaluationEngineBatch(t *testing.T) {
	p := TestParams()
	client, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := client.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	server, err := NewEvaluationEngineFromReader(p, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	net := evalKeysTestNet()
	rng := rand.New(rand.NewPCG(11, 13))
	const B = 3
	ins := make([]*EncryptedInput, B)
	xs := make([]*qnn.IntTensor, B)
	for b := 0; b < B; b++ {
		x := qnn.NewIntTensor(1, 4, 4)
		for i := range x.Data {
			x.Data[i] = int64(rng.IntN(8))
		}
		xs[b] = x
		ins[b], err = client.EncryptInput(net, x)
		if err != nil {
			t.Fatal(err)
		}
	}
	outs, err := server.EvaluateEncryptedBatch(net, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != B {
		t.Fatalf("got %d outputs, want %d", len(outs), B)
	}
	for b := range outs {
		got, err := client.DecryptLogits(outs[b])
		if err != nil {
			t.Fatal(err)
		}
		want := net.ForwardInt(xs[b]).Data
		for i := range got {
			// Batched runs allow the slightly wider e_ms tolerance the
			// repo's InferBatch tests use.
			if d := got[i] - want[i]; d < -3 || d > 3 {
				t.Fatalf("image %d logit %d: got %d, plaintext %d", b, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluationEngineRefusesClientOps checks the typed error on
// secret-key operations.
func TestEvaluationEngineRefusesClientOps(t *testing.T) {
	p := TestParams()
	client, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := client.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	server, err := NewEvaluationEngineFromReader(p, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	net := evalKeysTestNet()
	if _, err := server.EncryptInput(net, qnn.NewIntTensor(1, 4, 4)); err != ErrNoSecretKey {
		t.Fatalf("EncryptInput: got %v, want ErrNoSecretKey", err)
	}
	if _, err := server.DecryptLogits(&EncryptedLogits{}); err != ErrNoSecretKey {
		t.Fatalf("DecryptLogits: got %v, want ErrNoSecretKey", err)
	}
}

// TestEvalKeysDeterministicEncoding pins the property the serving
// layer's content-addressed session IDs rely on: serializing the same
// key material twice yields identical bytes.
func TestEvalKeysDeterministicEncoding(t *testing.T) {
	eng, err := NewEngine(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := eng.WriteEvalKeys(&a); err != nil {
		t.Fatal(err)
	}
	if err := eng.WriteEvalKeys(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("eval-keys encoding is not deterministic")
	}
}

// TestEvalKeysMalformed feeds truncated and corrupted bundles to the
// decoder: every case must return an error (never panic or succeed).
func TestEvalKeysMalformed(t *testing.T) {
	p := TestParams()
	eng, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := eng.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	good := blob.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []float64{0, 0.01, 0.5, 0.99} {
			n := int(float64(len(good)) * frac)
			if _, err := ReadEvalKeys(p, bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes: decoder accepted", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := ReadEvalKeys(p, bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted magic accepted")
		}
	})
	t.Run("matrix-key-version", func(t *testing.T) {
		// A bundle of version 1 carries the per-value keyswitch matrix, one
		// of version 2 the keys' A rows: refused at the header with a typed
		// error, before any key.
		for _, v := range []uint64{1, 2} {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(bad[8:], v)
			var bv *BundleVersionError
			if _, err := ReadEvalKeys(p, bytes.NewReader(bad)); !errors.As(err, &bv) || bv.Version != v {
				t.Fatalf("version-%d bundle: %v, want a *BundleVersionError of version %d", v, err, v)
			}
		}
	})
	t.Run("wrong-params", func(t *testing.T) {
		p2 := p
		p2.LWEDim = 64
		if _, err := ReadEvalKeys(p2, bytes.NewReader(good)); err == nil {
			t.Fatal("parameter mismatch accepted")
		}
	})
	t.Run("inflated-ksk-header", func(t *testing.T) {
		// The bundle up to its keyswitch key, then a bare key header
		// claiming a ring of degree 2^20 and 2^20 outputs: rejected against
		// the parameters' switch plan before the reader allocates the key,
		// so the attempt costs no more than decoding the honest bundle.
		pl, err := planFor(p)
		if err != nil {
			t.Fatal(err)
		}
		s := pl.ks
		kskLen := 56 + 8*2*s.Digits*s.N
		bad := append([]byte(nil), good[:len(good)-kskLen]...)
		for _, v := range []uint64{0x414b4b31, 2, s.Q, p.KSBase, uint64(s.Digits), 1 << 20, 1 << 20} {
			bad = binary.LittleEndian.AppendUint64(bad, v)
		}
		allocated := func(blob []byte) (uint64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadEvalKeys(p, bytes.NewReader(blob))
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, err
		}
		honest, err := allocated(good)
		if err != nil {
			t.Fatal(err)
		}
		inflated, err := allocated(bad)
		if err == nil {
			t.Fatal("inflated keyswitch header accepted")
		}
		if inflated > 2*honest {
			t.Fatalf("inflated header allocated %d bytes, the honest bundle %d", inflated, honest)
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Flip one byte at a spread of offsets; the decoder must never
		// panic. (It may legitimately succeed when the flip lands in a
		// ciphertext coefficient that stays in range.)
		for off := 0; off < len(good); off += len(good)/64 + 1 {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("offset %d: panic %v", off, r)
					}
				}()
				_, _ = ReadEvalKeys(p, bytes.NewReader(bad))
			}()
		}
	})
}

// flakyReaderAt fails every other read attempt with a transient error
// and caps each success at a small section, exercising both the
// retry-once and partial-progress resumption paths of ReadEvalKeysAt.
type flakyReaderAt struct {
	data  []byte
	calls int
}

func (f *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	f.calls++
	if f.calls%2 == 1 {
		return 0, errTransient
	}
	if off < 0 || off > int64(len(f.data)) {
		return 0, errTransient
	}
	if len(p) > 777 {
		p = p[:777] // force short reads so resumption is exercised
	}
	n := copy(p, f.data[off:])
	return n, nil
}

var errTransient = bytes.ErrTooLarge // any sentinel; never surfaced on success

// TestReadEvalKeysAt decodes the same bundle via the sequential reader
// and via a flaky chunked ReaderAt, and requires identical results.
func TestReadEvalKeysAt(t *testing.T) {
	p := TestParams()
	eng, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := eng.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	good := blob.Bytes()
	want, err := ReadEvalKeys(p, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvalKeysAt(p, &flakyReaderAt{data: good}, int64(len(good)))
	if err != nil {
		t.Fatalf("ReadEvalKeysAt over flaky reader: %v", err)
	}
	if got.PackDim != want.PackDim || len(got.PackKeys) != len(want.PackKeys) {
		t.Fatalf("bundle shape mismatch: %d/%d keys, dim %d/%d",
			len(got.PackKeys), len(want.PackKeys), got.PackDim, want.PackDim)
	}
	// Re-serializing through an engine built from each bundle must agree
	// byte for byte (the encoding is deterministic).
	e1, err := NewEvaluationEngine(p, want)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEvaluationEngine(p, got)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := e1.WriteEvalKeys(&b1); err != nil {
		t.Fatal(err)
	}
	if err := e2.WriteEvalKeys(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chunked decode disagrees with sequential decode")
	}
	// Truncated size must fail cleanly, not hang retrying.
	if _, err := ReadEvalKeysAt(p, &flakyReaderAt{data: good[:len(good)/2]}, int64(len(good)/2)); err == nil {
		t.Fatal("truncated chunked bundle accepted")
	}
}

// TestEvalKeysRefuseUnevaluable: a bundle with a key below the level the
// evaluation reads it at, or without a key it reads, is refused with a
// *KeyLevelError by ReadEvalKeys and, handed over in memory, by
// NewEvaluationEngine; a switching key whose level is malformed on the
// wire is refused with bfv.ErrKeyShape.
func TestEvalKeysRefuseUnevaluable(t *testing.T) {
	p := TestParams()
	e := testEngine(t)
	good, err := e.EvalKeys()
	if err != nil {
		t.Fatal(err)
	}
	fbsL, postL, full := e.ctxF.Level(), e.ctxP.Level(), e.Ctx.Level()
	var packG, s2cG uint64 // a Galois key the packer reads, one only S2C reads
	for _, u := range e.galois {
		if u.level == fbsL && packG == 0 {
			packG = u.g
		}
		if u.level == postL && s2cG == 0 {
			s2cG = u.g
		}
	}
	if packG == 0 || s2cG == 0 || fbsL == postL {
		t.Fatalf("TestParams schedule (%d, %d) reads no key at each level", fbsL, postL)
	}
	// edit returns good with a copy of its key set and babies changed by f.
	edit := func(f func(ks *bfv.KeySet, babies []*bfv.Ciphertext)) *EvalKeys {
		ek := *good
		ek.KeySet = &bfv.KeySet{Relin: good.KeySet.Relin, Galois: maps.Clone(good.KeySet.Galois)}
		ek.PackKeys = append([]*bfv.Ciphertext(nil), good.PackKeys...)
		f(ek.KeySet, ek.PackKeys)
		return &ek
	}
	for _, c := range []struct {
		name string
		ek   *EvalKeys
		want KeyLevelError
	}{
		{"relinearization key at FBS-1", edit(func(ks *bfv.KeySet, _ []*bfv.Ciphertext) {
			ks.Relin = &bfv.RelinearizationKey{SwitchingKey: ks.Relin.AtLevel(fbsL - 1)}
		}), KeyLevelError{Key: "relinearization key", Level: fbsL - 1, Need: fbsL}},
		{"packing galois key at post level", edit(func(ks *bfv.KeySet, _ []*bfv.Ciphertext) {
			ks.Galois[packG] = &bfv.GaloisKey{GaloisEl: packG, SwitchingKey: ks.Galois[packG].AtLevel(postL)}
		}), KeyLevelError{Key: fmt.Sprintf("galois key %d", packG), Level: postL, Need: fbsL}},
		{"missing S2C key", edit(func(ks *bfv.KeySet, _ []*bfv.Ciphertext) {
			delete(ks.Galois, s2cG)
		}), KeyLevelError{Key: fmt.Sprintf("galois key %d", s2cG), Need: postL}},
		{"packing baby at post level", edit(func(_ *bfv.KeySet, babies []*bfv.Ciphertext) {
			var err error
			if babies[1], err = e.Ctx.ModDown(babies[1], postL); err != nil {
				t.Fatal(err)
			}
		}), KeyLevelError{Key: "packing key 1", Level: postL, Need: fbsL}},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(stage string, err error) {
				t.Helper()
				var kl *KeyLevelError
				if !errors.As(err, &kl) || *kl != c.want {
					t.Fatalf("%s: got %v, want %v", stage, err, &c.want)
				}
			}
			_, err := NewEvaluationEngine(p, c.ek)
			check("NewEvaluationEngine", err)
			var buf bytes.Buffer
			if err := e.writeEvalKeys(c.ek, &buf); err != nil {
				t.Fatal(err)
			}
			_, err = ReadEvalKeys(p, &buf)
			check("ReadEvalKeys", err)
		})
	}

	// After the bundle header (6 words), the key-set header (5 words) and
	// the relinearization flag, word 12 is the relinearization key's
	// level, words 13 to 16 its seed, and word 17 the limb count of its
	// first polynomial.
	var buf bytes.Buffer
	if err := e.WriteEvalKeys(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	const levelWord, limbWord = 12, 17
	for _, w := range []int{levelWord, limbWord} {
		if got := binary.LittleEndian.Uint64(blob[8*w:]); got != uint64(fbsL) {
			t.Fatalf("word %d of the bundle is %d, want the relinearization key's level %d", w, got, fbsL)
		}
	}
	for _, c := range []struct {
		name string
		word int
		v    uint64
	}{
		{"level 0", levelWord, 0},
		{"level above the chain", levelWord, uint64(full + 1)},
		{"polynomial below the key's level", limbWord, uint64(fbsL - 1)},
		{"polynomial above the key's level", limbWord, uint64(fbsL + 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(bad[8*c.word:], c.v)
			if _, err := ReadEvalKeys(p, bytes.NewReader(bad)); !errors.Is(err, bfv.ErrKeyShape) {
				t.Fatalf("got %v, want bfv.ErrKeyShape", err)
			}
		})
	}
	// A bundle cut inside a key's seed is refused as truncated.
	if _, err := ReadEvalKeys(p, bytes.NewReader(blob[:8*(levelWord+1)+12])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("bundle cut inside a seed: got %v, want io.ErrUnexpectedEOF", err)
	}
}
