package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"athena/internal/ring"
)

// Word-sized exact base conversion and scale-and-round (Halevi, Polyakov
// and Shoup, "An Improved RNS Variant of the BFV Homomorphic Encryption
// Scheme"), the two kernels a ciphertext multiplication runs seven times.
//
// Both start from the CRT digits y_i = [x_i·(P/p_i)^-1]_{p_i} of a
// coefficient over a basis P = Π p_i, for which x = Σ y_i·(P/p_i) − v·P
// with v = round(Σ y_i/p_i) when x is the centered representative. The
// sums of fractions are formed in 128-bit fixed point from truncated
// constants, so they only underestimate, by less than two units of 2^-64
// per limb. roundFixed reports when that error could carry the sum over
// the rounding boundary; those coefficients, about limbs·2^-63 of all
// inputs, are recomputed from ReconstructCentered, which makes the
// kernels bit-identical to the big-integer definition on every input.
// (No sum lies exactly on a boundary: the moduli are odd.)

// MaxLimbs bounds the length of a basis the word-sized kernels accept:
// ring.Modulus.MulSumVec keeps a column of that many products of
// ring.MaxModulusBits-bit words, and three unit rows, below 2^128.
const MaxLimbs = 32

// undecided flags, in Scratch.top, a column whose fixed-point sum was too
// close to a rounding boundary. A genuine high word is below 2·MaxLimbs.
const undecided = 1 << 63

// Scratch is the staging area of Convert and ScaleRound: the CRT digits
// of the source polynomial, the rounded sum of every column, and the row
// headers handed to MulSumVec. A Scratch serves one goroutine.
type Scratch struct {
	y, rows [][]uint64
	v, top  []uint64
}

// NewScratch sizes a Scratch for source bases of up to limbs primes and
// polynomials of n coefficients.
func NewScratch(limbs, n int) *Scratch {
	y := make([][]uint64, limbs)
	backing := make([]uint64, (limbs+2)*n)
	for i := range y {
		y[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return &Scratch{
		y:    y,
		v:    backing[limbs*n : (limbs+1)*n : (limbs+1)*n],
		top:  backing[(limbs+1)*n:],
		rows: make([][]uint64, limbs+3),
	}
}

// fixedRecip returns floor(num·2^128/q) as two words, for num < q.
func fixedRecip(num, q uint64) (hi, lo uint64) {
	hi, r := bits.Div64(num, 0, q)
	lo, _ = bits.Div64(r, 0, q)
	return hi, lo
}

// roundFixed rounds, half up, a sum whose fixed-point image has the
// fraction lo·2^-64: up is what the integer part gains. The true sum
// exceeds its image by less than 2·limbs·2^-64 (one unit per term for the
// truncated product, under an eighth for the truncated constant); decided
// is false when that could change the answer.
//
//lint:noalloc
func roundFixed(lo uint64, limbs int) (up uint64, decided bool) {
	lo, up = bits.Add64(lo, 1<<63, 0)
	return up, lo <= -uint64(2*limbs)
}

// roundSumVec sets v[c] + top[c]·2^64 = round(Σ_i y[i][c]·f_i) for the
// fractions f_i ≈ fHi[i]·2^-64 + fLo[i]·2^-128, and returns how many
// columns it left undecided, each flagged in top.
//
//lint:noalloc
func roundSumVec(y [][]uint64, fHi, fLo, top, v []uint64) int {
	fHi, fLo = fHi[:len(y)], fLo[:len(y)]
	top = top[:len(v)]
	misses := 0
	for c := range v {
		var t, hi, lo uint64
		for i, row := range y {
			ph, pl := bits.Mul64(row[c], fHi[i])
			qh, _ := bits.Mul64(row[c], fLo[i])
			var c1, c2 uint64
			lo, c1 = bits.Add64(lo, pl, 0)
			lo, c2 = bits.Add64(lo, qh, 0)
			hi, c1 = bits.Add64(hi, ph, c1)
			hi, c2 = bits.Add64(hi, 0, c2)
			t += c1 + c2
		}
		up, decided := roundFixed(lo, len(y))
		hi, up = bits.Add64(hi, 0, up)
		t += up
		if !decided {
			t = undecided
			misses++
		}
		v[c], top[c] = hi, t
	}
	return misses
}

// digits fills sc.y with the CRT digits over b of the limbs src holds (a
// prefix of b's) and returns them.
//
//lint:noalloc
func (b *Basis) digits(src ring.Poly, sc *Scratch) [][]uint64 {
	y := sc.y[:len(src.Coeffs)]
	for i, x := range src.Coeffs {
		b.Moduli[i].MulShoupVec(x, b.QiHatInv[i], b.qiHatInvShoup[i], y[i])
	}
	return y
}

// Converter moves polynomials from one basis to another exactly: every
// coefficient is read as its centered representative modulo the source
// product and reduced modulo each target prime.
type Converter struct {
	from, to *Basis
	// recipHi/Lo[i] = floor(2^128/p_i) over the source primes.
	recipHi, recipLo []uint64
	// weights[j] = [P/p_0, …, P/p_{k-1}, −P] modulo target prime j.
	weights [][]uint64
}

// NewConverter precomputes the conversion from one basis to another.
func NewConverter(from, to *Basis) (*Converter, error) {
	k := from.Len()
	if k > MaxLimbs {
		return nil, fmt.Errorf("rns: %d-limb source basis exceeds %d", k, MaxLimbs)
	}
	cv := &Converter{
		from: from, to: to,
		recipHi: make([]uint64, k), recipLo: make([]uint64, k),
		weights: make([][]uint64, to.Len()),
	}
	for j := range cv.weights {
		cv.weights[j] = make([]uint64, k+1)
	}
	col := make([]uint64, to.Len())
	for i := 0; i <= k; i++ {
		if i < k {
			cv.recipHi[i], cv.recipLo[i] = fixedRecip(1, from.Moduli[i].Q)
			to.Reduce(from.QiHat[i], col)
		} else {
			to.Reduce(new(big.Int).Neg(from.Q), col)
		}
		for j := range col {
			cv.weights[j][i] = col[j]
		}
	}
	return cv, nil
}

// Convert writes src (over the source basis, coefficient domain) into dst
// over the target basis: x = Σ y_i·(P/p_i) − v·P, one MulSumVec per
// target limb with the overflow count v as the last row.
//
//lint:noalloc
func (cv *Converter) Convert(src, dst ring.Poly, sc *Scratch) {
	y := cv.from.digits(src, sc)
	misses := roundSumVec(y, cv.recipHi, cv.recipLo, sc.top, sc.v)
	rows := sc.rows[:len(y)+1]
	copy(rows, y)
	rows[len(y)] = sc.v
	for j, m := range cv.to.Moduli {
		m.MulSumVec(rows, cv.weights[j], dst.Coeffs[j])
	}
	if misses != 0 {
		cv.exactColumns(src, dst, sc.top) //lint:allow noalloc boundary fallback, about limbs·2^-63 of all coefficients
	}
}

// exactColumns recomputes every flagged coefficient the way the kernels
// are defined: big-integer reconstruction, then reduction.
func (cv *Converter) exactColumns(src, dst ring.Poly, top []uint64) {
	res := make([]uint64, cv.from.Len())
	out := make([]uint64, cv.to.Len())
	var x big.Int
	for c, f := range top {
		if f != undecided {
			continue
		}
		cv.from.ReconstructCentered(at(src, c, res), &x)
		cv.to.Reduce(&x, out)
		for j := range out {
			dst.Coeffs[j][c] = out[j]
		}
	}
}

// Scaler computes round(t·x/Q), half up, for x over the basis Q ∪ B and
// delivers it modulo the primes of B: the first half of the BFV tensor
// rescale. Writing x = Σ y_i·(QB/p_i) − u·QB over all limbs of QB,
//
//	t·x/Q = Σ_{i∈Q} y_i·t·B/q_i + Σ_{j∈B} y_j·t·B/b_j − u·t·B,
//
// and modulo b_j every B term but the j-th vanishes along with u, the
// j-th is x_j·[t·Q^-1]_{b_j}, and t·B/q_i splits into a word-sized
// integer part and a fraction whose sum over i is rounded in fixed point.
// The result is exact for every x; it is the centered value of
// round(t·x/Q) whenever that fits B, which lets a Converter carry it on.
type Scaler struct {
	qb, b  *Basis
	k      int
	t, q   *big.Int
	q2     *big.Int // 2·Q
	fracHi []uint64 // frac(t·B/q_i) to 128 bits
	fracLo []uint64
	// weights[j] = [⌊t·B/q_0⌋, …, ⌊t·B/q_{k-1}⌋, t·Q^-1, 1, 2^64] mod b_j.
	weights [][]uint64
}

// NewScaler precomputes the scaling by t/Q from Q ∪ B into B.
func NewScaler(q, b *Basis, t uint64) (*Scaler, error) {
	k, m := q.Len(), b.Len()
	if k > MaxLimbs {
		return nil, fmt.Errorf("rns: %d-limb scaled basis exceeds %d", k, MaxLimbs)
	}
	s := &Scaler{
		qb: NewBasis(append(q.Values(), b.Values()...)), b: b, k: k,
		t: new(big.Int).SetUint64(t), q: q.Q, q2: new(big.Int).Lsh(q.Q, 1),
		fracHi: make([]uint64, k), fracLo: make([]uint64, k),
		weights: make([][]uint64, m),
	}
	col := make([]uint64, m)
	b.Reduce(q.Q, col)
	for j, mj := range b.Moduli {
		w := make([]uint64, k+3)
		w[k] = mj.Mul(mj.Reduce(t), mj.Inv(col[j]))
		w[k+1] = 1
		_, w[k+2] = bits.Div64(1, 0, mj.Q)
		s.weights[j] = w
	}
	tB := new(big.Int).Mul(s.t, b.Q)
	var quo, rem, qi big.Int
	for i, mi := range q.Moduli {
		quo.QuoRem(tB, qi.SetUint64(mi.Q), &rem)
		s.fracHi[i], s.fracLo[i] = fixedRecip(rem.Uint64(), mi.Q)
		b.Reduce(&quo, col)
		for j := range col {
			s.weights[j][i] = col[j]
		}
	}
	return s, nil
}

// ScaleRound writes round(t·x/Q) modulo the primes of B into dst, for x
// given by its Q limbs srcQ and its B limbs srcB (coefficient domain).
// dst must not alias srcB.
//
//lint:noalloc
func (s *Scaler) ScaleRound(srcQ, srcB, dst ring.Poly, sc *Scratch) {
	y := s.qb.digits(srcQ, sc)
	misses := roundSumVec(y, s.fracHi, s.fracLo, sc.top, sc.v)
	rows := sc.rows[:s.k+3]
	copy(rows, y)
	rows[s.k+1], rows[s.k+2] = sc.v, sc.top
	for j, m := range s.b.Moduli {
		rows[s.k] = srcB.Coeffs[j]
		m.MulSumVec(rows, s.weights[j], dst.Coeffs[j])
	}
	if misses != 0 {
		s.exactColumns(srcQ, srcB, dst, sc.top) //lint:allow noalloc boundary fallback, about limbs·2^-63 of all coefficients
	}
}

// exactColumns recomputes every flagged coefficient as ScaleAndRound
// does.
func (s *Scaler) exactColumns(srcQ, srcB, dst ring.Poly, top []uint64) {
	res := make([]uint64, s.qb.Len())
	out := make([]uint64, s.b.Len())
	var x, r big.Int
	for c, f := range top {
		if f != undecided {
			continue
		}
		at(srcQ, c, res[:s.k])
		at(srcB, c, res[s.k:])
		s.b.Reduce(s.qb.scaleRound(res, s.t, s.q, s.q2, &x, &r), out)
		for j := range out {
			dst.Coeffs[j][c] = out[j]
		}
	}
}
