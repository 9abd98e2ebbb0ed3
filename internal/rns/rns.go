// Package rns provides the exact cross-limb arithmetic that complements
// the word-sized RNS representation in package ring: CRT reconstruction
// to big integers, reduction back to residues, base conversion, the
// scale-and-round operations at the heart of BFV multiplication and
// decryption, and the CRT digit decomposition used by keyswitching.
//
// Two tiers compute the same exact functions. Basis works through
// big.Int, one coefficient at a time; it defines the results and serves
// the cold paths (decryption, modulus switching, ModDown). Converter and
// Scaler (convert.go) are the word-sized, allocation-free forms a
// ciphertext multiplication runs; they return to the Basis definition
// only for the rare coefficient their fixed-point rounding cannot decide.
package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"athena/internal/par"
	"athena/internal/ring"
)

// Basis is a CRT basis: a set of pairwise-coprime word-sized primes with
// the precomputed constants for reconstruction and decomposition.
type Basis struct {
	Moduli []ring.Modulus
	Q      *big.Int   // product of all moduli
	QHalf  *big.Int   // floor(Q/2)
	QiHat  []*big.Int // Q / q_i
	// QiHatInv[i] = (Q/q_i)^-1 mod q_i.
	QiHatInv []uint64
	// qiHatInvShoup[i] is the Shoup companion of QiHatInv[i] mod q_i,
	// precomputed for the digit-decomposition hot path.
	qiHatInvShoup []uint64
}

// NewBasis builds a basis from the given moduli (need not be sorted; must
// be pairwise coprime, which holds for distinct primes).
func NewBasis(moduli []uint64) *Basis {
	if len(moduli) == 0 {
		panic("rns: empty basis")
	}
	b := &Basis{
		Moduli:        make([]ring.Modulus, len(moduli)),
		Q:             big.NewInt(1),
		QiHat:         make([]*big.Int, len(moduli)),
		QiHatInv:      make([]uint64, len(moduli)),
		qiHatInvShoup: make([]uint64, len(moduli)),
	}
	for i, q := range moduli {
		b.Moduli[i] = ring.NewModulus(q)
		b.Q.Mul(b.Q, new(big.Int).SetUint64(q))
	}
	b.QHalf = new(big.Int).Rsh(b.Q, 1)
	for i, q := range moduli {
		b.QiHat[i] = new(big.Int).Div(b.Q, new(big.Int).SetUint64(q))
		hatMod := new(big.Int).Mod(b.QiHat[i], new(big.Int).SetUint64(q)).Uint64()
		b.QiHatInv[i] = b.Moduli[i].Inv(hatMod)
		b.qiHatInvShoup[i] = b.Moduli[i].ShoupPrecomp(b.QiHatInv[i])
	}
	return b
}

// Values returns the raw moduli.
func (b *Basis) Values() []uint64 {
	qs := make([]uint64, len(b.Moduli))
	for i, m := range b.Moduli {
		qs[i] = m.Q
	}
	return qs
}

// Len returns the number of limbs.
func (b *Basis) Len() int { return len(b.Moduli) }

// Reconstruct converts residues (one per limb) to the unique value in
// [0, Q). The result is written into out, which is returned.
func (b *Basis) Reconstruct(residues []uint64, out *big.Int) *big.Int {
	if len(residues) != len(b.Moduli) {
		panic(fmt.Sprintf("rns: %d residues for %d-limb basis", len(residues), len(b.Moduli)))
	}
	out.SetUint64(0)
	var term big.Int
	for i, x := range residues {
		// v += ((x · QiHatInv_i) mod q_i) · QiHat_i
		c := b.Moduli[i].MulShoup(x, b.QiHatInv[i], b.qiHatInvShoup[i])
		term.SetUint64(c)
		term.Mul(&term, b.QiHat[i])
		out.Add(out, &term)
	}
	// The sum is < L·Q (each term is < q_i·QiHat_i = Q), so at most L-1
	// cheap subtractions replace a full big-integer division.
	for out.Cmp(b.Q) >= 0 {
		out.Sub(out, b.Q)
	}
	return out
}

// ReconstructCentered is Reconstruct followed by centering into
// [-Q/2, Q/2).
func (b *Basis) ReconstructCentered(residues []uint64, out *big.Int) *big.Int {
	b.Reconstruct(residues, out)
	if out.Cmp(b.QHalf) > 0 {
		out.Sub(out, b.Q)
	}
	return out
}

// wordIs64 selects the fast word-wise reduction path: big.Word matches
// uint64 on 64-bit targets, so v.Bits() can feed Barrett directly.
const wordIs64 = bits.UintSize == 64

// reduceBig returns v mod q in [0, q), including for negative v, by
// Horner evaluation of v's words in base 2^64 under Barrett reduction —
// no big.Int division, no allocation.
func reduceBig(m ring.Modulus, v *big.Int) uint64 {
	var r uint64
	words := v.Bits()
	for w := len(words) - 1; w >= 0; w-- {
		r = m.ReduceWide(r, uint64(words[w]))
	}
	if r != 0 && v.Sign() < 0 {
		r = m.Q - r
	}
	return r
}

// Reduce writes v mod q_i into out[i] for every limb. v may be negative.
func (b *Basis) Reduce(v *big.Int, out []uint64) {
	if wordIs64 {
		for i, m := range b.Moduli {
			out[i] = reduceBig(m, v)
		}
		return
	}
	var r big.Int
	var q big.Int
	for i, m := range b.Moduli {
		q.SetUint64(m.Q)
		r.Mod(v, &q) // Go's Mod is Euclidean: result in [0, q)
		out[i] = r.Uint64()
	}
}

// at gathers the i-th coefficient's residues from a poly into scratch.
func at(p ring.Poly, j int, scratch []uint64) []uint64 {
	for i := range p.Coeffs {
		scratch[i] = p.Coeffs[i][j]
	}
	return scratch
}

// ReconstructPoly maps every coefficient of p (coefficient domain) to its
// centered big-integer value.
func (b *Basis) ReconstructPoly(p ring.Poly) []*big.Int {
	n := len(p.Coeffs[0])
	out := make([]*big.Int, n)
	scratch := make([]uint64, b.Len())
	for j := 0; j < n; j++ {
		out[j] = b.ReconstructCentered(at(p, j, scratch), new(big.Int))
	}
	return out
}

// ReducePoly writes the values v into a polynomial over the basis,
// coefficient j receiving v[j] mod q_i in limb i. len(v) may be shorter
// than the polynomial; remaining coefficients are zeroed.
func (b *Basis) ReducePoly(v []*big.Int, p ring.Poly) {
	n := len(p.Coeffs[0])
	scratch := make([]uint64, b.Len())
	for j := 0; j < n; j++ {
		if j < len(v) {
			b.Reduce(v[j], scratch)
			for i := range p.Coeffs {
				p.Coeffs[i][j] = scratch[i]
			}
		} else {
			for i := range p.Coeffs {
				p.Coeffs[i][j] = 0
			}
		}
	}
}

// roundDiv returns round(num/den) for den > 0, rounding halves away from
// zero for non-negative num and toward zero for negative (i.e. standard
// floor((2·num+den)/(2·den)) rounding).
func roundDiv(num, den *big.Int) *big.Int {
	out := new(big.Int)
	roundDivInto(out, num, den, new(big.Int).Lsh(den, 1))
	return out
}

// roundDivInto is roundDiv with the output and the doubled denominator
// supplied by the caller, so per-coefficient loops reuse their scratch
// instead of allocating two big.Ints per division.
func roundDivInto(out, num, den, den2 *big.Int) {
	out.Lsh(num, 1)
	out.Add(out, den)
	out.Div(out, den2) // Euclidean floor division
}

// scaleRound returns round(num·x/den), half up, for the centered value x
// of the residues: the per-coefficient definition of every scaling in
// this package. x and r are the caller's scratch (r is returned) and den2
// is 2·den.
func (b *Basis) scaleRound(residues []uint64, num, den, den2 *big.Int, x, r *big.Int) *big.Int {
	b.ReconstructCentered(residues, x)
	x.Mul(x, num)
	roundDivInto(r, x, den, den2)
	return r
}

// ScaleAndRound computes round(scaleNum · v / scaleDen) for each centered
// coefficient of p (over basis b), then reduces the result into out over
// basis target: the big-integer rescale behind ModDown. Coefficients are
// processed in parallel.
func (b *Basis) ScaleAndRound(p ring.Poly, scaleNum, scaleDen *big.Int, target *Basis, out ring.Poly) {
	n := len(p.Coeffs[0])
	den2 := new(big.Int).Lsh(scaleDen, 1) // shared, read-only across workers
	par.Chunks(n, func(start, end int) {
		scratch := make([]uint64, b.Len())
		outScratch := make([]uint64, target.Len())
		var v, r big.Int
		for j := start; j < end; j++ {
			target.Reduce(b.scaleRound(at(p, j, scratch), scaleNum, scaleDen, den2, &v, &r), outScratch)
			for i := range out.Coeffs {
				out.Coeffs[i][j] = outScratch[i]
			}
		}
	})
}

// ScaleAndRoundToUint computes round(scaleNum·v/scaleDen) mod outMod for
// each centered coefficient of p, writing word-sized results. Used for
// decryption (scale t/Q, reduce mod t) and modulus switching to a single
// word-sized modulus.
func (b *Basis) ScaleAndRoundToUint(p ring.Poly, scaleNum, scaleDen *big.Int, outMod uint64, out []uint64) {
	n := len(p.Coeffs[0])
	om, omErr := ring.TryNewModulus(outMod)
	useFast := wordIs64 && omErr == nil
	omBig := new(big.Int).SetUint64(outMod)
	den2 := new(big.Int).Lsh(scaleDen, 1) // shared, read-only across workers
	par.Chunks(n, func(start, end int) {
		scratch := make([]uint64, b.Len())
		var v, r big.Int
		for j := start; j < end; j++ {
			b.scaleRound(at(p, j, scratch), scaleNum, scaleDen, den2, &v, &r)
			if useFast {
				out[j] = reduceBig(om, &r)
			} else {
				r.Mod(&r, omBig)
				out[j] = r.Uint64()
			}
		}
	})
}

// DecomposeDigits performs the CRT digit decomposition used by RNS
// keyswitching: digit i is the word-sized polynomial
// d_i = [p · QiHatInv_i]_{q_i}, spread across all limbs of the basis so it
// can multiply a key component. p must be in the coefficient domain; the
// digits are returned in the coefficient domain.
func (b *Basis) DecomposeDigits(p ring.Poly, allocate func() ring.Poly) []ring.Poly {
	digits := make([]ring.Poly, b.Len())
	for i := range b.Moduli {
		d := allocate()
		b.DecomposeDigitInto(p, i, d)
		digits[i] = d
	}
	return digits
}

// DecomposeDigitInto computes digit i of the CRT decomposition of p into
// the caller-provided polynomial d (as many limbs as the basis, each of
// p's coefficient count) — the allocation-free core of DecomposeDigits.
// The digit value [p_i · QiHatInv_i]_{q_i} is computed once per
// coefficient into d's own i-th limb, then spread to the other limbs: a
// limb with q_l ≥ q_i takes a plain copy (the value is already reduced),
// smaller limbs take one vectorized Barrett pass.
func (b *Basis) DecomposeDigitInto(p ring.Poly, i int, d ring.Poly) {
	b.DecomposeDigitScaledInto(p, i, b.QiHatInv[i], b.qiHatInvShoup[i], d)
}

// DecomposeDigitScaledInto computes digit i of the CRT decomposition of p
// with a caller-supplied inverse constant in place of the basis's own
// QiHatInv_i: d = spread([p_i · inv]_{q_i}). Keyswitching against
// full-chain key material at a reduced level needs the corrected constant
// inv = [(Q_L/q_i)^{-1} · (Q/Q_L)^{-1}]_{q_i}, which makes the digits sum
// against the full-chain q̂_i back to p modulo the reduced Q_L.
// invShoup must be ShoupPrecomp(inv) for the i-th modulus.
func (b *Basis) DecomposeDigitScaledInto(p ring.Poly, i int, inv, invShoup uint64, d ring.Poly) {
	mi := b.Moduli[i]
	small := d.Coeffs[i] // digit mod q_i is the digit value itself
	mi.MulShoupVec(p.Coeffs[i], inv, invShoup, small)
	for l := range d.Coeffs {
		if l == i {
			continue
		}
		ml := b.Moduli[l]
		if ml.Q >= mi.Q {
			copy(d.Coeffs[l], small)
		} else {
			ml.ReduceVec(small, d.Coeffs[l])
		}
	}
}

// ScalarMod returns v mod q_i for every limb, for a big scalar v (e.g.
// Δ = floor(Q/t)).
func (b *Basis) ScalarMod(v *big.Int) []uint64 {
	out := make([]uint64, b.Len())
	b.Reduce(v, out)
	return out
}
