package bfv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"athena/internal/ring"
)

// mulGolden holds the sha256 of the serialized products below. They
// were first generated at the last commit whose tensor product ran every
// coefficient through big.Int CRT reconstruction, and the word-sized
// tensor reproduced them bit for bit: a rounding that differs in one
// coefficient changes the hash. They moved once since, with the
// relinearization key's words, when switching keys came to be drawn from
// indexed row streams (KeyGenerator).
var mulGolden = map[string]string{
	"n128_t257/full/ab":   "085e2c9eef6aa8860cd43b7fd2916e7d8977d3850a8138a8bf1cd5c10d2c1905",
	"n128_t257/full/aa":   "e513387a99512ce67d5bf391594e9edf7494bc344ed37c9693db4132d6672821",
	"n128_t257/fbs/ab":    "0640f66ad53f1451dfeb1ab2b0420416398af6e994ae3e94ebcb7ba609c5bf22",
	"n128_t257/fbs/aa":    "66195c54e902efa84913814ab29fffe162467b49cb8b7948bb4da0e2af9ab79f",
	"n512_t12289/full/ab": "9503b23b040d850ec6a59f2b47cb00551d2ecbe6a6d4e126c705401892849323",
	"n512_t12289/full/aa": "1986b162fc5b10294498d676d2f1524c6fb2fb0a431c52494d6bf79fdedae426",
	"n512_t12289/fbs/ab":  "660b594ef80b3fb7cff15c3b98a1987f56e15ee7b630b8d9516b901ec6e87413",
	"n512_t12289/fbs/aa":  "379bc2ef821a71a14e7fbee3aa3c9c20481262004307e086bf28b7efdf8befef",
}

// TestMulMatchesGoldenFingerprint pins Evaluator.Mul to the checked-in
// product fingerprints at the two benchmark parameter shapes (the
// core.TestParams chain and the N = 512, ten 55-bit limb, t = 12289
// chain), at the full level and at the FBS level (one limb dropped), for
// distinct operands and for a squaring.
func TestMulMatchesGoldenFingerprint(t *testing.T) {
	for _, s := range []struct {
		name              string
		logN, bits, limbs int
		t                 uint64
	}{
		{"n128_t257", 7, 50, 6, 257},
		{"n512_t12289", 9, 55, 10, 12289},
	} {
		primes, err := ring.GenerateNTTPrimes(s.bits, s.logN, s.limbs)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(Parameters{LogN: s.logN, Qi: primes, T: s.t})
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(ctx, 1234)
		sk := kg.GenSecretKey()
		keys := kg.GenKeySet(sk, nil)
		enc := NewEncryptor(ctx, kg.GenPublicKey(sk), 77)
		cod := NewEncoder(ctx)
		a := enc.Encrypt(cod.EncodeCoeffs(randVals(ctx.N, int64(s.t/2), 1)))
		b := enc.Encrypt(cod.EncodeCoeffs(randVals(ctx.N, int64(s.t/2), 2)))

		fbsCtx, err := ctx.AtLevel(s.limbs - 1)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := ctx.ModDown(a, s.limbs-1)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := ctx.ModDown(b, s.limbs-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			key  string
			ctx  *Context
			x, y *Ciphertext
		}{
			{"/full/ab", ctx, a, b},
			{"/full/aa", ctx, a, a},
			{"/fbs/ab", fbsCtx, fa, fb},
			{"/fbs/aa", fbsCtx, fa, fa},
		} {
			prod, err := NewEvaluator(c.ctx, keys).Mul(c.x, c.y)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.ctx.WriteCiphertext(prod, &buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), mulGolden[s.name+c.key]; got != want {
				t.Errorf("%s%s: product fingerprint %s, golden %s", s.name, c.key, got, want)
			}
		}
	}
}
