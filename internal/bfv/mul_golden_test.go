package bfv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"athena/internal/ring"
)

// mulGolden holds the sha256 of the serialized products below, generated
// at the last commit whose tensor product ran every coefficient through
// big.Int CRT reconstruction. The word-sized tensor must reproduce them
// bit for bit: a rounding that differs in one coefficient changes the
// hash.
var mulGolden = map[string]string{
	"n128_t257/full/ab":   "8cd9234624e45a24a981c3a33804d265f08a8dd34aa31338f0d46ba53d731a53",
	"n128_t257/full/aa":   "1e1dd1ff26e312a8b5e1d0f487a582ed15e74d25688718e52371dcfbf2d5924d",
	"n128_t257/fbs/ab":    "01f19a58a701c248587898dcd789c2642a88148b990790b0494b5f133d1c138c",
	"n128_t257/fbs/aa":    "63fb72d761c51a981cb7d678b171d15d515d25f6446fbdc8d6095c78ddda7fa4",
	"n512_t12289/full/ab": "cf93d2a7a9604b1d07da1a8e57e08515c421280e74cda8f3904dd356437758af",
	"n512_t12289/full/aa": "4ad4eaefe24819a8dfc1f79afde60a102a025c27a0c28096954f1d796e67b4a4",
	"n512_t12289/fbs/ab":  "4428983e071b751cb46620aae915de171e6fd45577932397155ea1d60613df27",
	"n512_t12289/fbs/aa":  "13510ecb550e468bde4572b4fa754d378c5a30bb0412420c1c5db00b9d0b1def",
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
