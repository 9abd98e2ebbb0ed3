package ring

import "math/bits"

// Vector kernels over one RNS limb. These are the flat inner loops behind
// Ring's polynomial operations: each takes equal-length slices, reslices
// them to a common length up front so the compiler can drop the per-element
// bounds checks, and keeps the whole element computation inline (no
// per-element method-call boundary). All canonical-output kernels are
// bit-identical to mapping the corresponding scalar Modulus method over
// the slices; the lazy variants document their extended output ranges.

// AddVec sets out[i] = a[i] + b[i] mod q for canonical inputs.
//
//lint:noalloc
//lint:domain a:<q b:<q -> out:<q
func (m Modulus) AddVec(a, b, out []uint64) {
	q := m.Q
	b = b[:len(a)]
	out = out[:len(a)]
	for i := range a {
		c := a[i] + b[i]
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// AddLazyVec sets out[i] = a[i] + b[i] with no reduction. The caller owns
// the headroom invariant (see Modulus.AddLazy).
//
//lint:noalloc
//lint:domain a:<2q b:<2q -> out:<4q
func (m Modulus) AddLazyVec(a, b, out []uint64) {
	b = b[:len(a)]
	out = out[:len(a)]
	for i := range a {
		out[i] = a[i] + b[i]
	}
}

// SubVec sets out[i] = a[i] - b[i] mod q for canonical inputs.
//
//lint:noalloc
//lint:domain a:<q b:<q -> out:<q
func (m Modulus) SubVec(a, b, out []uint64) {
	q := m.Q
	b = b[:len(a)]
	out = out[:len(a)]
	for i := range a {
		c := a[i] + q - b[i]
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// NegVec sets out[i] = -a[i] mod q for canonical inputs.
//
//lint:noalloc
//lint:domain a:<q -> out:<q
func (m Modulus) NegVec(a, out []uint64) {
	q := m.Q
	out = out[:len(a)]
	for i := range a {
		c := q - a[i]
		if a[i] == 0 {
			c = 0
		}
		out[i] = c
	}
}

// Reduce2QVec folds values in [0, 2q) back to canonical [0, q).
//
//lint:noalloc
//lint:domain a:<2q -> out:<q
func (m Modulus) Reduce2QVec(a, out []uint64) {
	q := m.Q
	out = out[:len(a)]
	for i := range a {
		c := a[i]
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// ReduceVec maps arbitrary uint64 values into [0, q) via Barrett
// reduction, the vector form of Modulus.Reduce.
//
//lint:noalloc
//lint:domain a:any -> out:<q
func (m Modulus) ReduceVec(a, out []uint64) {
	q := m.Q
	brcHi, brcLo := m.brcHi, m.brcLo
	out = out[:len(a)]
	for i := range a {
		lo := a[i]
		ph1, _ := bits.Mul64(lo, brcLo)
		ph2hi, ph2lo := bits.Mul64(lo, brcHi)
		_, c2 := bits.Add64(ph2lo, ph1, 0)
		s := ph2hi + c2
		r := lo - s*q
		for r >= q {
			r -= q
		}
		out[i] = r
	}
}

// MulVec sets out[i] = a[i]·b[i] mod q via Barrett reduction, for
// canonical inputs.
//
//lint:noalloc
//lint:domain a:<q b:<q -> out:<q
func (m Modulus) MulVec(a, b, out []uint64) {
	q := m.Q
	brcHi, brcLo := m.brcHi, m.brcLo
	b = b[:len(a)]
	out = out[:len(a)]
	for i := range a {
		hi, lo := bits.Mul64(a[i], b[i])
		ph1, _ := bits.Mul64(lo, brcLo)
		ph2hi, ph2lo := bits.Mul64(lo, brcHi)
		ph3hi, ph3lo := bits.Mul64(hi, brcLo)
		ph4 := hi * brcHi
		mid, c1 := bits.Add64(ph2lo, ph3lo, 0)
		_, c2 := bits.Add64(mid, ph1, 0)
		s := ph4 + ph2hi + ph3hi + c1 + c2
		r := lo - s*q
		for r >= q {
			r -= q
		}
		out[i] = r
	}
}

// MulAddVec sets out[i] = out[i] + a[i]·b[i] mod q, for canonical inputs.
//
//lint:noalloc
//lint:domain a:<q b:<q out:<q -> out:<q
func (m Modulus) MulAddVec(a, b, out []uint64) {
	q := m.Q
	brcHi, brcLo := m.brcHi, m.brcLo
	b = b[:len(a)]
	out = out[:len(a)]
	for i := range a {
		hi, lo := bits.Mul64(a[i], b[i])
		ph1, _ := bits.Mul64(lo, brcLo)
		ph2hi, ph2lo := bits.Mul64(lo, brcHi)
		ph3hi, ph3lo := bits.Mul64(hi, brcLo)
		ph4 := hi * brcHi
		mid, c1 := bits.Add64(ph2lo, ph3lo, 0)
		_, c2 := bits.Add64(mid, ph1, 0)
		s := ph4 + ph2hi + ph3hi + c1 + c2
		r := lo - s*q
		for r >= q {
			r -= q
		}
		c := out[i] + r
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// MulShoupVec sets out[i] = a[i]·w mod q given the Shoup companion of the
// fixed operand w < q; a may hold any uint64 values (see Modulus.MulShoup).
//
//lint:noalloc
//lint:domain a:any w:<q -> out:<q
func (m Modulus) MulShoupVec(a []uint64, w, wShoup uint64, out []uint64) {
	q := m.Q
	out = out[:len(a)]
	for i := range a {
		hi, _ := bits.Mul64(a[i], wShoup)
		r := a[i]*w - hi*q
		if r >= q {
			r -= q
		}
		out[i] = r
	}
}

// MulShoupLazyVec is MulShoupVec without the final conditional
// subtraction: outputs lie in [0, 2q).
//
//lint:noalloc
//lint:domain a:any w:<q -> out:<2q
func (m Modulus) MulShoupLazyVec(a []uint64, w, wShoup uint64, out []uint64) {
	q := m.Q
	out = out[:len(a)]
	for i := range a {
		hi, _ := bits.Mul64(a[i], wShoup)
		out[i] = a[i]*w - hi*q
	}
}

// MulShoupAddVec sets out[i] = out[i] + a[i]·w mod q for canonical out and
// w < q: the fused kernel behind scalar multiply-accumulate.
//
//lint:noalloc
//lint:domain a:any w:<q out:<q -> out:<q
func (m Modulus) MulShoupAddVec(a []uint64, w, wShoup uint64, out []uint64) {
	q := m.Q
	out = out[:len(a)]
	for i := range a {
		hi, _ := bits.Mul64(a[i], wShoup)
		r := a[i]*w - hi*q
		if r >= q {
			r -= q
		}
		c := out[i] + r
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// ShoupPrecompVec fills out[i] with ShoupPrecomp(a[i]) for canonical a:
// the companion vector of a fixed elementwise operand (key material,
// compiled plaintext multipliers). Precomputation path, not hot.
//
//lint:noalloc
func (m Modulus) ShoupPrecompVec(a, out []uint64) {
	out = out[:len(a)]
	for i := range a {
		s, _ := bits.Div64(a[i], 0, m.Q)
		out[i] = s
	}
}

// MulShoupElemVec sets out[i] = a[i]·b[i] mod q where b is a fixed
// canonical operand with its precomputed companion vector bShoup
// (ShoupPrecompVec); a may hold any uint64 values. This replaces the
// Barrett MulVec on hot paths whose second operand never changes
// (switching keys, compiled diagonal multipliers).
//
//lint:noalloc
//lint:domain a:any b:<q -> out:<q
func (m Modulus) MulShoupElemVec(a, b, bShoup, out []uint64) {
	q := m.Q
	b = b[:len(a)]
	bShoup = bShoup[:len(a)]
	out = out[:len(a)]
	for i := range a {
		hi, _ := bits.Mul64(a[i], bShoup[i])
		r := a[i]*b[i] - hi*q
		if r >= q {
			r -= q
		}
		out[i] = r
	}
}

// MulShoupElemAddVec sets out[i] = out[i] + a[i]·b[i] mod q for a fixed
// canonical b with companion vector bShoup and canonical out.
//
//lint:noalloc
//lint:domain a:any b:<q out:<q -> out:<q
func (m Modulus) MulShoupElemAddVec(a, b, bShoup, out []uint64) {
	q := m.Q
	b = b[:len(a)]
	bShoup = bShoup[:len(a)]
	out = out[:len(a)]
	for i := range a {
		hi, _ := bits.Mul64(a[i], bShoup[i])
		r := a[i]*b[i] - hi*q
		if r >= q {
			r -= q
		}
		c := out[i] + r
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// MulShoupSumVec sets out[j] = Σ_k rows[k][j]·w[k] mod q, accumulating
// every term of the sum in one pass over the output: the partial sum
// rides in the lazy range [0, 2q) (each Shoup-lazy product lands in
// [0, 2q), the running sum stays < 4q < 2^63 for q ≤ 2^61 and is folded
// branchlessly), and only the final store reduces to canonical [0, q).
// w[k] < q with companions wShoup[k]; rows may hold any uint64 values.
//
//lint:noalloc
//lint:domain w:<q -> out:<q
func (m Modulus) MulShoupSumVec(rows [][]uint64, w, wShoup []uint64, out []uint64) {
	q := m.Q
	twoQ := q << 1
	w = w[:len(rows)]
	wShoup = wShoup[:len(rows)]
	for j := range out {
		var acc uint64
		for k := range rows {
			a := rows[k][j]
			hi, _ := bits.Mul64(a, wShoup[k])
			acc += a*w[k] - hi*q // in [0, 4q)
			c := acc - twoQ
			acc = c + (twoQ & uint64(int64(c)>>63)) // fold to [0, 2q)
		}
		c := acc - q
		out[j] = c + (q & uint64(int64(c)>>63))
	}
}

// MulShoupSumAddVec sets out[j] = out[j] + Σ_k rows[k][j]·w[k] mod q for
// canonical out, with the same lazy accumulation as MulShoupSumVec.
//
//lint:noalloc
//lint:domain w:<q out:<q -> out:<q
func (m Modulus) MulShoupSumAddVec(rows [][]uint64, w, wShoup []uint64, out []uint64) {
	q := m.Q
	twoQ := q << 1
	w = w[:len(rows)]
	wShoup = wShoup[:len(rows)]
	for j := range out {
		acc := out[j] // canonical, so already < 2q
		for k := range rows {
			a := rows[k][j]
			hi, _ := bits.Mul64(a, wShoup[k])
			acc += a*w[k] - hi*q // in [0, 4q)
			c := acc - twoQ
			acc = c + (twoQ & uint64(int64(c)>>63)) // fold to [0, 2q)
		}
		c := acc - q
		out[j] = c + (q & uint64(int64(c)>>63))
	}
}

// MulSumVec sets out[j] = Σ_k rows[k][j]·w[k] mod q: the whole dot
// product of a column rides in one unreduced 128-bit accumulator and
// takes a single Barrett reduction at the store, the way the RNS
// base-conversion kernels of package rns combine the CRT digits of a
// coefficient with one row of their weight matrix. Neither rows nor w
// need be reduced; the caller guarantees that every column sum stays
// below 2^128 (up to 64 rows of residues and weights below
// 2^MaxModulusBits do).
//
//lint:noalloc
//lint:domain w:any -> out:<q
func (m Modulus) MulSumVec(rows [][]uint64, w []uint64, out []uint64) {
	q := m.Q
	brcHi, brcLo := m.brcHi, m.brcLo
	w = w[:len(rows)]
	for j := range out {
		var hi, lo uint64
		for k, row := range rows {
			ph, pl := bits.Mul64(row[j], w[k])
			var c uint64
			lo, c = bits.Add64(lo, pl, 0)
			hi += ph + c
		}
		// Barrett as in ReduceWide: only bits [128,192) of x·brc matter
		// and they are formed mod 2^64, so hi needs no bound.
		ph1, _ := bits.Mul64(lo, brcLo)
		ph2hi, ph2lo := bits.Mul64(lo, brcHi)
		ph3hi, ph3lo := bits.Mul64(hi, brcLo)
		ph4 := hi * brcHi
		mid, c1 := bits.Add64(ph2lo, ph3lo, 0)
		_, c2 := bits.Add64(mid, ph1, 0)
		s := ph4 + ph2hi + ph3hi + c1 + c2
		r := lo - s*q
		for r >= q {
			r -= q
		}
		out[j] = r
	}
}
