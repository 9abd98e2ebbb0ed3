package bfv

import (
	"math/big"

	"athena/internal/ring"
	"athena/internal/rns"
)

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	ctx *Context
	pk  *PublicKey
	enc *Encoder
	smp *ring.Sampler
}

// NewEncryptor creates an encryptor with its own sampler seed.
func NewEncryptor(ctx *Context, pk *PublicKey, seed uint64) *Encryptor {
	return &Encryptor{ctx: ctx, pk: pk, enc: NewEncoder(ctx), smp: ring.NewSampler(ctx.RingQ, seed)}
}

// Encrypt produces a fresh encryption of pt:
// (C0, C1) = (P0·u + e0 + Δ·m, P1·u + e1).
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	ctx := e.ctx
	rq := ctx.RingQ
	ct := ctx.NewCiphertext()

	u := rq.NewPoly()
	e.smp.TernaryDense(u)
	rq.NTT(u)

	e0 := rq.NewPoly()
	e.smp.Gaussian(ctx.Params.Sigma, e0)
	rq.NTT(e0)
	e1 := rq.NewPoly()
	e.smp.Gaussian(ctx.Params.Sigma, e1)
	rq.NTT(e1)

	rq.MulCoeffs(e.pk.P0, u, ct.C0)
	rq.Add(ct.C0, e0, ct.C0)
	dm := e.enc.LiftToDelta(pt)
	rq.Add(ct.C0, dm, ct.C0)

	rq.MulCoeffs(e.pk.P1, u, ct.C1)
	rq.Add(ct.C1, e1, ct.C1)
	return ct
}

// EncryptZero returns a fresh encryption of the zero plaintext.
func (e *Encryptor) EncryptZero() *Ciphertext {
	return e.Encrypt(e.ctx.NewPlaintext())
}

// Decryptor decrypts and inspects noise.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor creates a decryptor for sk.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// phase computes C0 + C1·s in the coefficient domain, at the resolved
// level ctx. The secret key always lives over the full chain; the ring
// kernels iterate the ciphertext's limbs, so its prefix is what is read.
func (d *Decryptor) phase(ctx *Context, ct *Ciphertext) ring.Poly {
	rq := ctx.RingQ
	ph := rq.NewPoly()
	rq.MulCoeffs(ct.C1, d.sk.Value, ph)
	rq.Add(ph, ct.C0, ph)
	rq.INTT(ph)
	return ph
}

// Decrypt recovers the plaintext: m = round(t·phase/Q) mod t, where Q is
// the (possibly reduced) chain the ciphertext currently lives under. The
// scaling is exact and word-sized (rns.WordScaler).
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	ctx := d.ctx.atLevelOf(ct)
	pt, _ := d.decrypt(ctx, ct)
	return pt
}

// decrypt returns the plaintext of ct at the resolved level ctx, and the
// phase it was rounded from.
func (d *Decryptor) decrypt(ctx *Context, ct *Ciphertext) (*Plaintext, ring.Poly) {
	ph := d.phase(ctx, ct)
	pt := ctx.NewPlaintext()
	ctx.toT.ScaleRound(ph, pt.Coeffs, rns.NewScratch(ctx.Level(), ctx.N))
	return pt, ph
}

// NoiseBudget returns the remaining noise budget of ct in bits:
// log2(Q/t) - log2(2·|e|∞) where e = phase - Δ·m is the exact noise,
// over the ciphertext's own modulus chain.
// A non-positive budget means decryption is no longer guaranteed.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) float64 {
	ctx := d.ctx.atLevelOf(ct)
	pt, ph := d.decrypt(ctx, ct)

	// e = phase - Δ·m (mod Q), centered.
	scratch := make([]uint64, ctx.BasisQ.Len())
	var v, dm big.Int
	maxAbs := new(big.Int)
	for j := 0; j < ctx.N; j++ {
		for i := range ph.Coeffs {
			scratch[i] = ph.Coeffs[i][j]
		}
		ctx.BasisQ.Reconstruct(scratch, &v)
		dm.SetUint64(pt.Coeffs[j])
		dm.Mul(&dm, ctx.Delta)
		v.Sub(&v, &dm)
		v.Mod(&v, ctx.QBig)
		if v.Cmp(ctx.BasisQ.QHalf) > 0 {
			v.Sub(&v, ctx.QBig)
		}
		v.Abs(&v)
		if v.Cmp(maxAbs) > 0 {
			maxAbs.Set(&v)
		}
	}
	if maxAbs.Sign() == 0 {
		return float64(ctx.QBig.BitLen() - ctx.TBig.BitLen())
	}
	budget := ctx.QBig.BitLen() - ctx.TBig.BitLen() - maxAbs.BitLen() - 1
	if budget < 0 {
		return float64(budget)
	}
	return float64(budget)
}
