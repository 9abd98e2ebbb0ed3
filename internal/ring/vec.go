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

// PackTile copies columns [j0, j0+cols) of rows into tile, column by
// column: tile[j·K+k] = rows[k][j0+j] with K = len(rows). The rows of a
// limb are separate 8·N-byte arrays, usually page-aligned, so the K
// values of one column lie in K cache lines that compete for one cache
// set; packed, they are one contiguous run that MulSumTile reads
// front to back. Rows go eight at a time so that a column's words are
// written a cache line at once.
//
//lint:noalloc
func PackTile(rows [][]uint64, j0, cols int, tile []uint64) {
	kn := len(rows)
	tile = tile[:cols*kn]
	k := 0
	for ; k+8 <= kn; k += 8 {
		r0, r1, r2, r3 := rows[k][j0:j0+cols], rows[k+1][j0:j0+cols], rows[k+2][j0:j0+cols], rows[k+3][j0:j0+cols]
		r4, r5, r6, r7 := rows[k+4][j0:j0+cols], rows[k+5][j0:j0+cols], rows[k+6][j0:j0+cols], rows[k+7][j0:j0+cols]
		for j := range r0 {
			d := tile[j*kn+k : j*kn+k+8 : j*kn+k+8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[j], r1[j], r2[j], r3[j], r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; k < kn; k++ {
		for j, v := range rows[k][j0 : j0+cols] {
			tile[j*kn+k] = v
		}
	}
}

// SumTerms is ⌊2^128/q²⌋ (capped at 2^62): how many products of two
// values below q a 128-bit accumulator that starts below q can add
// without wrapping, since (q−1) + n·(q−1)² < n·q². It is 64 for a
// 61-bit q, at least 256 below 2^60 and over 2^17 at 55 bits.
//
//lint:noalloc
func (m Modulus) SumTerms() int {
	// ⌊⌊2^128/q⌋/q⌋ = ⌊2^128/q²⌋; a quotient of 2^64 or more is capped.
	if m.brcHi >= m.Q {
		return 1 << 62
	}
	n, _ := bits.Div64(m.brcHi, m.brcLo, m.Q)
	return int(min(n, 1<<62))
}

// MulSumTile sets outs[g][j] = Σ_k tile[j·K+k]·w[g][k] mod q for every
// output g and column j < len(outs[g]), K = len(w[g]): the product of
// the G × K weight matrix with a K × cols tile packed by PackTile. Each
// column sum rides unreduced in a 128-bit accumulator and takes one
// Barrett reduction at the store (MulSumVec's arithmetic); outputs go two
// to a pass, which shares the tile loads and is as wide as the loop can
// be with every accumulator in a register. Tile words and weights must be
// below q. Term bound: the accumulator holds SumTerms() products; a
// longer column is folded — reduced to its residue mid-sum — every
// SumTerms() rows, so the result is exact for any K (256 rows at a
// 61-bit q fold three times, at 55 bits never).
//
//lint:noalloc
//lint:domain tile:<q w:<q -> outs:<q
func (m Modulus) MulSumTile(tile []uint64, w, outs [][]uint64) {
	if len(outs) == 0 {
		return
	}
	kn := len(w[0])
	fold := min(m.SumTerms(), max(kn, 1))
	g := 0
	for ; g+2 <= len(outs); g += 2 {
		w0, w1, o0, o1 := w[g], w[g+1], outs[g], outs[g+1][:len(outs[g])]
		for j := range o0 {
			col := tile[j*kn : (j+1)*kn]
			var h0, l0, h1, l1 uint64
			for k0 := 0; k0 < kn; k0 += fold {
				if k0 > 0 {
					h0, l0, h1, l1 = 0, m.ReduceWide(h0, l0), 0, m.ReduceWide(h1, l1)
				}
				k1 := min(k0+fold, kn)
				h0, l0, h1, l1 = mulSum2(col[k0:k1], w0[k0:k1], w1[k0:k1], h0, l0, h1, l1)
			}
			o0[j], o1[j] = m.ReduceWide(h0, l0), m.ReduceWide(h1, l1)
		}
	}
	if g < len(outs) {
		w0, o0 := w[g], outs[g]
		for j := range o0 {
			col := tile[j*kn : (j+1)*kn]
			var h0, l0 uint64
			for k0 := 0; k0 < kn; k0 += fold {
				if k0 > 0 {
					h0, l0 = 0, m.ReduceWide(h0, l0)
				}
				k1 := min(k0+fold, kn)
				h0, l0 = mulSum1(col[k0:k1], w0[k0:k1], h0, l0)
			}
			o0[j] = m.ReduceWide(h0, l0)
		}
	}
}

// mulSum2 adds Σ_k c[k]·v0[k] and Σ_k c[k]·v1[k] to the 128-bit
// accumulators (h0, l0) and (h1, l1). It stays out of line: inside
// MulSumTile's loops the accumulators would be spilled every term.
//
//go:noinline
//lint:noalloc
func mulSum2(c, v0, v1 []uint64, h0, l0, h1, l1 uint64) (uint64, uint64, uint64, uint64) {
	v0, v1 = v0[:len(c)], v1[:len(c)]
	for k, a := range c {
		var cy uint64
		ph, pl := bits.Mul64(a, v0[k])
		l0, cy = bits.Add64(l0, pl, 0)
		h0, _ = bits.Add64(h0, ph, cy)
		ph, pl = bits.Mul64(a, v1[k])
		l1, cy = bits.Add64(l1, pl, 0)
		h1, _ = bits.Add64(h1, ph, cy)
	}
	return h0, l0, h1, l1
}

// mulSum1 is mulSum2 for the last of an odd number of outputs.
//
//go:noinline
//lint:noalloc
func mulSum1(c, v []uint64, hi, lo uint64) (uint64, uint64) {
	v = v[:len(c)]
	for k, a := range c {
		var cy uint64
		ph, pl := bits.Mul64(a, v[k])
		lo, cy = bits.Add64(lo, pl, 0)
		hi, _ = bits.Add64(hi, ph, cy)
	}
	return hi, lo
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

// sumPairCols is the column block of MulSumPairVec: its 128-bit sums,
// four words a column, stay on the stack (2 KB) and in L1 while every
// row of the block is added in.
const sumPairCols = 64

// MulSumPairVec sets out0[j] = Σ_k a[k][j]·b0[k][j] mod q and
// out1[j] = Σ_k a[k][j]·b1[k][j] mod q: the two elementwise sums of
// products over a fixed operand that share their other factor — a
// gadget product's digits against a key's (B, A) rows, a plaintext's
// diagonals against a ciphertext's two halves. It is MulSumTile's
// arithmetic with elementwise weights: a block of columns at a time,
// two rows to a pass, every product is added unreduced into a 128-bit
// accumulator, and each sum takes one Barrett reduction at the store.
// A sum of more than SumTerms() terms is folded — reduced to its residue
// mid-sum — every SumTerms() rows, so the result is exact for any term
// count; it is limb for limb the sum of MulVec products added with
// AddVec. b0 and b1 hold len(a) rows, every row at least len(out0)
// words and every word below q; no term leaves out0 and out1 zero.
//
//lint:noalloc
//lint:domain a:<q b0:<q b1:<q -> out0:<q out1:<q
func (m Modulus) MulSumPairVec(a, b0, b1 [][]uint64, out0, out1 []uint64) {
	kn, n := len(a), len(out0)
	out1 = out1[:n]
	if kn == 0 {
		clear(out0)
		clear(out1)
		return
	}
	b0, b1 = b0[:kn], b1[:kn]
	fold := min(m.SumTerms(), kn)
	var accs [4 * sumPairCols]uint64
	for j0 := 0; j0 < n; j0 += sumPairCols {
		j1 := min(j0+sumPairCols, n)
		acc := accs[:4*(j1-j0)]
		for k0 := 0; k0 < kn; k0 += fold {
			k, k1 := k0, min(k0+fold, kn)
			switch {
			case k0 > 0:
				for c := 0; c < len(acc); c += 2 {
					acc[c], acc[c+1] = 0, m.ReduceWide(acc[c], acc[c+1])
				}
			case k1 >= 2:
				sumPairSet2(a[0][j0:j1], a[1][j0:j1], b0[0][j0:j1], b0[1][j0:j1], b1[0][j0:j1], b1[1][j0:j1], acc)
				k += 2
			default:
				clear(acc)
			}
			for ; k+2 <= k1; k += 2 {
				sumPairAdd2(a[k][j0:j1], a[k+1][j0:j1], b0[k][j0:j1], b0[k+1][j0:j1], b1[k][j0:j1], b1[k+1][j0:j1], acc)
			}
			if k < k1 {
				sumPairAdd1(a[k][j0:j1], b0[k][j0:j1], b1[k][j0:j1], acc)
			}
		}
		o0, o1 := out0[j0:j1], out1[j0:j1]
		for j := range o0 {
			o0[j], o1[j] = m.ReduceWide(acc[4*j], acc[4*j+1]), m.ReduceWide(acc[4*j+2], acc[4*j+3])
		}
	}
}

// sumPairSet2 sets the accumulators of MulSumPairVec's columns to the
// products of their first two rows: acc[4j:4j+2] = x0·y0 + x1·y1 and
// acc[4j+2:4j+4] = x0·z0 + x1·z1 at column j, high word first.
//
//lint:noalloc
func sumPairSet2(x0, x1, y0, y1, z0, z1, acc []uint64) {
	x1, y0, y1, z0, z1 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)], z0[:len(x0)], z1[:len(x0)]
	acc = acc[:4*len(x0)]
	for j, u := range x0 {
		v, c := x1[j], acc[4*j:4*j+4:4*j+4]
		var cy uint64
		h, l := bits.Mul64(u, y0[j])
		ph, pl := bits.Mul64(v, y1[j])
		l, cy = bits.Add64(l, pl, 0)
		c[0], _ = bits.Add64(h, ph, cy)
		c[1] = l
		h, l = bits.Mul64(u, z0[j])
		ph, pl = bits.Mul64(v, z1[j])
		l, cy = bits.Add64(l, pl, 0)
		c[2], _ = bits.Add64(h, ph, cy)
		c[3] = l
	}
}

// sumPairAdd2 adds the products of two more rows to the accumulators.
//
//lint:noalloc
func sumPairAdd2(x0, x1, y0, y1, z0, z1, acc []uint64) {
	x1, y0, y1, z0, z1 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)], z0[:len(x0)], z1[:len(x0)]
	acc = acc[:4*len(x0)]
	for j, u := range x0 {
		v, c := x1[j], acc[4*j:4*j+4:4*j+4]
		var cy uint64
		h, l := c[0], c[1]
		ph, pl := bits.Mul64(u, y0[j])
		l, cy = bits.Add64(l, pl, 0)
		h, _ = bits.Add64(h, ph, cy)
		ph, pl = bits.Mul64(v, y1[j])
		l, cy = bits.Add64(l, pl, 0)
		c[0], _ = bits.Add64(h, ph, cy)
		c[1] = l
		h, l = c[2], c[3]
		ph, pl = bits.Mul64(u, z0[j])
		l, cy = bits.Add64(l, pl, 0)
		h, _ = bits.Add64(h, ph, cy)
		ph, pl = bits.Mul64(v, z1[j])
		l, cy = bits.Add64(l, pl, 0)
		c[2], _ = bits.Add64(h, ph, cy)
		c[3] = l
	}
}

// sumPairAdd1 adds the products of one more row: the last of an odd
// number.
//
//lint:noalloc
func sumPairAdd1(x, y, z, acc []uint64) {
	y, z = y[:len(x)], z[:len(x)]
	acc = acc[:4*len(x)]
	for j, u := range x {
		c := acc[4*j : 4*j+4 : 4*j+4]
		var cy uint64
		ph, pl := bits.Mul64(u, y[j])
		c[1], cy = bits.Add64(c[1], pl, 0)
		c[0], _ = bits.Add64(c[0], ph, cy)
		ph, pl = bits.Mul64(u, z[j])
		c[3], cy = bits.Add64(c[3], pl, 0)
		c[2], _ = bits.Add64(c[2], ph, cy)
	}
}
