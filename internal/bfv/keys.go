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
// in the NTT domain. The keyswitch reads B and A as they are, in one lazy
// inner product (ring.Modulus.MulSumPairVec), so a key holds its rows
// and nothing derived from them.
//
// A key has a level ℓ: ℓ components of ℓ limbs each. QiHat_i is always
// that of the full chain, so a level-ℓ key is the first ℓ components and
// ℓ limbs of the full-chain key, word for word, and it serves every
// keyswitch at a level ≤ ℓ (Context.AtLevel installs the matching digit
// correction).
//
// The uniform half is public randomness: limb j of A[i] is row (i, j) of
// the key's Seed (ring.RowStream), so a key travels as its seed and its
// B rows, and any level-ℓ prefix of A is expanded without the rest.
type SwitchingKey struct {
	Seed [32]byte
	B    []ring.Poly // B[i] = -(A[i]·s + e_i) + QiHat_i·target
	A    []ring.Poly
}

// Level returns the key's level: its component count, which is also
// the limb count of every component.
func (swk *SwitchingKey) Level() int { return len(swk.B) }

// AtLevel returns the level-l prefix of the key: its first l components,
// each cut to its first l limbs. The words are copied into fresh arrays,
// so the result does not pin the longer key's backing; at the key's own
// level it is the key itself.
// l must lie in [1, swk.Level()].
func (swk *SwitchingKey) AtLevel(l int) SwitchingKey {
	prefix := func(ps []ring.Poly) []ring.Poly {
		if l == swk.Level() {
			return ps
		}
		out := newKeyPolys(l, len(ps[0].Coeffs[0]))
		for i := range out {
			for j := range out[i].Coeffs {
				copy(out[i].Coeffs[j], ps[i].Coeffs[j])
			}
		}
		return out
	}
	return SwitchingKey{Seed: swk.Seed, B: prefix(swk.B), A: prefix(swk.A)}
}

// newKeyPolys returns l polynomials of l limbs of n words: the shape of
// one half of a level-l key, in one backing array and one row table.
func newKeyPolys(l, n int) []ring.Poly {
	out := make([]ring.Poly, l)
	rows := make([][]uint64, l*l)
	backing := make([]uint64, l*l*n)
	for i := range out {
		out[i].Coeffs = rows[i*l : (i+1)*l : (i+1)*l]
		for j := range out[i].Coeffs {
			k := i*l + j
			out[i].Coeffs[j] = backing[k*n : (k+1)*n : (k+1)*n]
		}
	}
	return out
}

// expandA fills A, ℓ polynomials of ℓ limbs, with the rows of seed.
func expandA(rq *ring.Ring, rows *ring.RowStream, seed *[32]byte, a []ring.Poly) {
	for i := range a {
		for j, limb := range a[i].Coeffs {
			rows.Row(seed, i, j)
			rows.UniformRow(limb, rq.Moduli[j].Q)
		}
	}
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

// KeyGenerator derives keys deterministically from a seed. Its secret
// stream draws the secret, the public key's randomness and each
// switching key's error seed; a second stream of its own draws the
// switching keys' public mask seeds. A switching key's rows are then
// drawn from indexed streams (ring.RowStream): the error of digit i
// from row (i, 0) of the key's error seed, the mask limb (i, j) from row
// (i, j) of its mask seed. A key generated at level ℓ is therefore, word
// for word, the level-ℓ prefix of the full-chain key its generator would
// have drawn in its place, and costs ℓ² rows rather than L².
type KeyGenerator struct {
	ctx   *Context
	smp   *ring.Sampler
	masks *ring.Keystream
	rows  *ring.RowStream
}

// maskTweak separates the stream of public mask seeds from the secret
// stream keyed by the same generator seed.
const maskTweak = 0x6a09e667f3bcc909

// NewKeyGenerator creates a generator over ctx seeded by seed.
func NewKeyGenerator(ctx *Context, seed uint64) *KeyGenerator {
	return &KeyGenerator{
		ctx:   ctx,
		smp:   ring.NewSampler(ctx.RingQ, seed),
		masks: ring.NewKeystreamTweaked(seed, maskTweak),
		rows:  ring.NewRowStream(ctx.RingQ),
	}
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

// genSwitchingKey builds the level-l keyswitching key from `target`
// (NTT domain, at least l limbs) to sk.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, target ring.Poly, l int) SwitchingKey {
	if l < 1 || l > kg.ctx.Level() {
		panic(fmt.Sprintf("bfv: switching key level %d outside [1, %d]", l, kg.ctx.Level()))
	}
	ctx := kg.ctx
	rq := ctx.RingQ
	errSeed := kg.smp.Seed32()
	swk := SwitchingKey{Seed: kg.masks.Seed32(), B: newKeyPolys(l, ctx.N), A: newKeyPolys(l, ctx.N)}
	expandA(rq, kg.rows, &swk.Seed, swk.A)
	// e and scaled are overwritten whole by every component.
	e, scaled := rq.NewPolyAt(l), rq.NewPolyAt(l)
	target = ring.Poly{Coeffs: target.Coeffs[:l]}
	for i, b := range swk.B {
		kg.rows.Row(&errSeed, i, 0)
		kg.rows.Gaussian(ctx.Params.Sigma, e)
		rq.NTT(e)

		rq.MulCoeffs(swk.A[i], sk.Value, b)
		rq.Add(b, e, b)
		rq.Neg(b, b) // b = -(a·s + e)

		// b += QiHat_i · target. QiHat_i mod q_l per limb.
		hat := ctx.BasisQ.ScalarMod(ctx.BasisQ.QiHat[i])
		rq.MulScalarRNS(target, hat[:l], scaled)
		rq.Add(b, scaled, b)
	}
	return swk
}

// GenRelinearizationKey builds the level-l s² -> s key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey, l int) *RelinearizationKey {
	rq := kg.ctx.RingQ
	s2 := rq.NewPoly()
	rq.MulCoeffs(sk.Value, sk.Value, s2)
	return &RelinearizationKey{kg.genSwitchingKey(sk, s2, l)}
}

// GenGaloisKey builds the level-l σ_g(s) -> s key for Galois element g.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g uint64, l int) *GaloisKey {
	rq := kg.ctx.RingQ
	sCoeff := sk.Value.Clone()
	rq.INTT(sCoeff)
	sPerm := rq.NewPoly()
	rq.Automorphism(sCoeff, g, sPerm)
	rq.NTT(sPerm)
	return &GaloisKey{GaloisEl: g, SwitchingKey: kg.genSwitchingKey(sk, sPerm, l)}
}

// GenKeySet builds a relinearization key plus Galois keys for the listed
// elements, all at the generator's level.
func (kg *KeyGenerator) GenKeySet(sk *SecretKey, galoisEls []uint64) *KeySet {
	l := kg.ctx.Level()
	ks := &KeySet{
		Relin:  kg.GenRelinearizationKey(sk, l),
		Galois: make(map[uint64]*GaloisKey, len(galoisEls)),
	}
	for _, g := range galoisEls {
		if _, ok := ks.Galois[g]; !ok {
			ks.Galois[g] = kg.GenGaloisKey(sk, g, l)
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
