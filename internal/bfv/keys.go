package bfv

import (
	"fmt"

	"athena/internal/ring"
)

// SecretKey is a ternary RLWE secret. Value is kept in the NTT domain;
// Signed retains the raw {-1,0,1} coefficients for noise analysis and for
// building LWE keys after sample extraction.
type SecretKey struct {
	Value  ring.Poly // NTT domain, ring Q
	Signed []int64
}

// PublicKey is an encryption of zero: P0 + P1·s = -e. Both polys are in
// the NTT domain.
type PublicKey struct {
	P0, P1 ring.Poly
}

// SwitchingKey holds one RNS-decomposed keyswitching key: component i is
// an encryption of QiHat_i · target under the output secret, both polys
// in the NTT domain. BShoup/AShoup carry the per-coefficient Shoup
// companions of the (immutable) key polynomials, putting the keyswitch
// inner products on the fast elementwise multiply path; they are derived
// from B/A (PrecomputeShoup) and never serialized.
//
// A key has a level ℓ: ℓ components of ℓ limbs each. QiHat_i is always
// that of the full chain, so a level-ℓ key is the first ℓ components and
// ℓ limbs of the full-chain key, word for word, and it serves every
// keyswitch at a level ≤ ℓ (Context.AtLevel installs the matching digit
// correction).
type SwitchingKey struct {
	B []ring.Poly // B[i] = -(A[i]·s + e_i) + QiHat_i·target
	A []ring.Poly

	BShoup []ring.Poly
	AShoup []ring.Poly
}

// PrecomputeShoup (re)derives the companion polynomials of the key
// material. Key generation and deserialization call it; keys assembled
// by hand may skip it, in which case the evaluator falls back to the
// Barrett path.
func (swk *SwitchingKey) PrecomputeShoup(rq *ring.Ring) {
	swk.BShoup = make([]ring.Poly, len(swk.B))
	swk.AShoup = make([]ring.Poly, len(swk.A))
	for i := range swk.B {
		swk.BShoup[i] = rq.ShoupPoly(swk.B[i])
		swk.AShoup[i] = rq.ShoupPoly(swk.A[i])
	}
}

// Level returns the key's level: its component count, which is also
// the limb count of every component.
func (swk *SwitchingKey) Level() int { return len(swk.B) }

// AtLevel returns the level-l prefix of the key: its first l components,
// each cut to its first l limbs, with the matching Shoup companions. The
// words are copied into fresh arrays, so the result does not pin the
// longer key's backing; at the key's own level it is the key itself.
// l must lie in [1, swk.Level()].
func (swk *SwitchingKey) AtLevel(l int) SwitchingKey {
	prefix := func(ps []ring.Poly) []ring.Poly {
		if ps == nil || l == swk.Level() {
			return ps
		}
		// One backing array and one row table hold all l·l limbs.
		n := len(ps[0].Coeffs[0])
		out := make([]ring.Poly, l)
		rows := make([][]uint64, l*l)
		backing := make([]uint64, l*l*n)
		for i := range out {
			out[i].Coeffs = rows[i*l : (i+1)*l : (i+1)*l]
			for j := range out[i].Coeffs {
				k := i*l + j
				out[i].Coeffs[j] = backing[k*n : (k+1)*n : (k+1)*n]
				copy(out[i].Coeffs[j], ps[i].Coeffs[j])
			}
		}
		return out
	}
	return SwitchingKey{B: prefix(swk.B), A: prefix(swk.A), BShoup: prefix(swk.BShoup), AShoup: prefix(swk.AShoup)}
}

// RelinearizationKey switches s² -> s.
type RelinearizationKey struct{ SwitchingKey }

// GaloisKey switches σ_g(s) -> s for one Galois element g.
type GaloisKey struct {
	GaloisEl uint64
	SwitchingKey
}

// KeySet bundles everything an evaluator may need.
type KeySet struct {
	Relin  *RelinearizationKey
	Galois map[uint64]*GaloisKey
}

// KeyGenerator derives keys deterministically from a seed.
type KeyGenerator struct {
	ctx *Context
	smp *ring.Sampler
}

// NewKeyGenerator creates a generator over ctx seeded by seed.
func NewKeyGenerator(ctx *Context, seed uint64) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, smp: ring.NewSampler(ctx.RingQ, seed)}
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	rq := kg.ctx.RingQ
	sk := &SecretKey{Value: rq.NewPoly()}
	sk.Signed = kg.smp.TernaryDense(sk.Value)
	rq.NTT(sk.Value)
	return sk
}

// GenPublicKey derives a public key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.ctx.RingQ
	pk := &PublicKey{P0: rq.NewPoly(), P1: rq.NewPoly()}
	kg.smp.Uniform(pk.P1) // treat as NTT-domain uniform a
	e := rq.NewPoly()
	kg.smp.Gaussian(kg.ctx.Params.Sigma, e)
	rq.NTT(e)
	// P0 = -(a·s) - e
	rq.MulCoeffs(pk.P1, sk.Value, pk.P0)
	rq.Add(pk.P0, e, pk.P0)
	rq.Neg(pk.P0, pk.P0)
	return pk
}

// genSwitchingKey builds a keyswitching key from `target` (NTT domain)
// to sk.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, target ring.Poly) SwitchingKey {
	ctx := kg.ctx
	rq := ctx.RingQ
	k := len(ctx.Params.Qi)
	swk := SwitchingKey{B: make([]ring.Poly, k), A: make([]ring.Poly, k)}
	// e and scaled are overwritten whole by every component.
	e, scaled := rq.NewPoly(), rq.NewPoly()
	for i := 0; i < k; i++ {
		a := rq.NewPoly()
		kg.smp.Uniform(a)
		kg.smp.Gaussian(ctx.Params.Sigma, e)
		rq.NTT(e)

		b := rq.NewPoly()
		rq.MulCoeffs(a, sk.Value, b)
		rq.Add(b, e, b)
		rq.Neg(b, b) // b = -(a·s + e)

		// b += QiHat_i · target. QiHat_i mod q_l per limb.
		hat := ctx.BasisQ.ScalarMod(ctx.BasisQ.QiHat[i])
		rq.MulScalarRNS(target, hat, scaled)
		rq.Add(b, scaled, b)

		swk.A[i] = a
		swk.B[i] = b
	}
	swk.PrecomputeShoup(rq)
	return swk
}

// GenRelinearizationKey builds the s² -> s key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	rq := kg.ctx.RingQ
	s2 := rq.NewPoly()
	rq.MulCoeffs(sk.Value, sk.Value, s2)
	return &RelinearizationKey{kg.genSwitchingKey(sk, s2)}
}

// GenGaloisKey builds the σ_g(s) -> s key for Galois element g.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g uint64) *GaloisKey {
	rq := kg.ctx.RingQ
	sCoeff := sk.Value.Clone()
	rq.INTT(sCoeff)
	sPerm := rq.NewPoly()
	rq.Automorphism(sCoeff, g, sPerm)
	rq.NTT(sPerm)
	return &GaloisKey{GaloisEl: g, SwitchingKey: kg.genSwitchingKey(sk, sPerm)}
}

// GenKeySet builds a relinearization key plus Galois keys for the listed
// elements.
func (kg *KeyGenerator) GenKeySet(sk *SecretKey, galoisEls []uint64) *KeySet {
	ks := &KeySet{
		Relin:  kg.GenRelinearizationKey(sk),
		Galois: make(map[uint64]*GaloisKey, len(galoisEls)),
	}
	for _, g := range galoisEls {
		if _, ok := ks.Galois[g]; !ok {
			ks.Galois[g] = kg.GenGaloisKey(sk, g)
		}
	}
	return ks
}

// GaloisKeyFor fetches the key for element g, or an error naming it.
func (ks *KeySet) GaloisKeyFor(g uint64) (*GaloisKey, error) {
	if k, ok := ks.Galois[g]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("bfv: missing galois key for element %d", g)
}
