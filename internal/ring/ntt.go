package ring

import "math/bits"

// NTTTable holds the precomputed twiddle factors for the negacyclic NTT
// of length N over one prime modulus. Twiddles are stored in bit-reversed
// order with Shoup companions, following the standard
// Cooley-Tukey / Gentleman-Sande formulation (Longa-Naehrig).
//
// Both transforms use lazy reduction internally: coefficients ride in
// the extended ranges [0, 2q) (inverse) and [0, 4q) (forward) between
// butterfly layers, and are folded back to canonical [0, q) residues
// only at the very end. With q ≤ 2^61 (MaxModulusBits) the lazy sums
// stay below 2^63 and never wrap. The exported entry points accept and
// produce canonical residues and are bit-identical to a fully-reduced
// reference transform (see the property tests).
//
// Forward/Inverse run radix-8 middle stages (three butterfly layers
// fused per pass, mirroring the paper's radix-8 NTT datapath), with
// radix-4 and radix-2 passes taking the layers left over.
type NTTTable struct {
	M    Modulus
	N    int
	LogN int

	psiFwd      []uint64 // ψ^br(i): forward twiddles, bit-reversed
	psiFwdShoup []uint64
	psiInv      []uint64 // ψ^-br(i): inverse twiddles, bit-reversed
	psiInvShoup []uint64
	nInv        uint64 // N^-1 mod q
	nInvShoup   uint64
	psiInvN     uint64 // ψ^-br(1)·N^-1: last-layer twiddle fused with 1/N
	psiInvNS    uint64
}

// NewNTTTable builds the tables for a negacyclic NTT of length N = 2^logN
// over the prime q, which must satisfy q ≡ 1 (mod 2N).
func NewNTTTable(q uint64, logN int) *NTTTable {
	n := 1 << uint(logN)
	m := NewModulus(q)
	psi := RootOfUnity(q, uint64(2*n))
	psiInv := m.Inv(psi)

	t := &NTTTable{
		M:           m,
		N:           n,
		LogN:        logN,
		psiFwd:      make([]uint64, n),
		psiFwdShoup: make([]uint64, n),
		psiInv:      make([]uint64, n),
		psiInvShoup: make([]uint64, n),
	}
	fw, iv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := bitrev(uint64(i), logN)
		t.psiFwd[j] = fw
		t.psiInv[j] = iv
		fw = m.Mul(fw, psi)
		iv = m.Mul(iv, psiInv)
	}
	for i := 0; i < n; i++ {
		t.psiFwdShoup[i] = m.ShoupPrecomp(t.psiFwd[i])
		t.psiInvShoup[i] = m.ShoupPrecomp(t.psiInv[i])
	}
	t.nInv = m.Inv(uint64(n))
	t.nInvShoup = m.ShoupPrecomp(t.nInv)
	// The final inverse layer (length = N/2) uses the single twiddle
	// ψ^-br(1); fusing the 1/N scaling into it (and into the u+v output)
	// saves the separate scaling pass over the whole vector.
	t.psiInvN = m.Mul(t.psiInv[1], t.nInv)
	t.psiInvNS = m.ShoupPrecomp(t.psiInvN)
	return t
}

func bitrev(x uint64, bitLen int) uint64 {
	return bits.Reverse64(x) >> uint(64-bitLen)
}

// Forward transforms p (coefficient order) in place into the NTT domain.
// The output ordering is the standard bit-reversed evaluation order; it is
// consistent with Inverse and with pointwise multiplication.
//
// Lazy-reduction invariant (Longa–Naehrig / Harvey): every coefficient
// is < 4q at the start of a layer. Each butterfly folds its u-side into
// [0, 2q), takes v = x·w in [0, 2q) from the subtraction-free Shoup
// multiply, and emits u+v and u−v+2q, both < 4q. The final stage folds
// [0, 4q) to canonical [0, q).
//
// The length = 2 and length = 1 layers run as the dedicated final stage,
// leaving logN-2 middle layers; radix-8 passes consume them three at a
// time, so one radix-2 layer (count ≡ 1 mod 3) or one radix-4 pass
// (count ≡ 2 mod 3) is peeled first to align the count.
//
//lint:noalloc
//lint:domain p:<q -> p:<q
func (t *NTTTable) Forward(p []uint64) {
	n := t.N
	p = p[:n]
	if n == 2 {
		t.fwdN2(p)
		return
	}
	length := n >> 1
	switch (t.LogN - 2) % 3 {
	case 1:
		if length >= 8 {
			// Four or more middle layers: two radix-4 passes beat a
			// radix-8 pass plus a lone radix-2 layer.
			t.fwdRadix4Pass(p, length)
			length >>= 2
			t.fwdRadix4Pass(p, length)
			length >>= 2
		} else if length >= 4 { // logN == 3: single middle layer
			t.fwdRadix2Peel(p)
			length >>= 1
		}
	case 2:
		if length >= 8 {
			t.fwdRadix4Pass(p, length)
			length >>= 2
		}
	}
	for ; length >= 16; length >>= 3 {
		t.fwdRadix8Pass(p, length)
	}
	t.fwdFinalStage(p)
}

// fwdRadix2Peel runs the first forward butterfly layer (half-length N/2)
// standalone. It only ever runs on the canonical transform input, so the
// u-side needs no fold: u+v < 3q and u+2q−v < 3q.
//
//lint:noalloc
//lint:domain p:<q -> p:<4q
func (t *NTTTable) fwdRadix2Peel(p []uint64) {
	q := t.M.Q
	twoQ := q << 1
	length := t.N >> 1
	w := t.psiFwd[1]
	ws := t.psiFwdShoup[1]
	a := p[:length]
	b := p[length:]
	b = b[:len(a)] // bounds-check-elimination hint
	for i := 0; i+1 < len(a); i += 2 {
		u0, u1 := a[i], a[i+1]
		x0, x1 := b[i], b[i+1]
		hi0, _ := bits.Mul64(x0, ws)
		hi1, _ := bits.Mul64(x1, ws)
		v0 := x0*w - hi0*q // in [0, 2q)
		v1 := x1*w - hi1*q
		a[i], a[i+1] = u0+v0, u1+v1
		b[i], b[i+1] = u0+twoQ-v0, u1+twoQ-v1
	}
}

// fwdRadix4Pass runs two fused forward butterfly layers (half-lengths
// length and length/2) over the whole vector. Each group of four strided
// coefficients is loaded once, runs the outer butterfly (twiddle w1) and
// both inner butterflies (the child twiddles 2k and 2k+1), and is stored
// once — halving memory traffic and loop overhead per butterfly versus
// layer-at-a-time radix-2.
//
//lint:noalloc
//lint:domain p:<4q -> p:<4q
func (t *NTTTable) fwdRadix4Pass(p []uint64, length int) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiF, psiFS := t.psiFwd, t.psiFwdShoup
	ql := length >> 1
	kBase := n / (length << 1)
	for b, start := 0, 0; start < n; b, start = b+1, start+(length<<1) {
		k1 := kBase + b
		w1 := psiF[k1]
		w1s := psiFS[k1]
		w2 := psiF[2*k1]
		w2s := psiFS[2*k1]
		w3 := psiF[2*k1+1]
		w3s := psiFS[2*k1+1]
		p0 := p[start : start+ql]
		p1 := p[start+ql : start+2*ql]
		p2 := p[start+2*ql : start+3*ql]
		p3 := p[start+3*ql : start+4*ql]
		p1 = p1[:len(p0)] // bounds-check-elimination hints
		p2 = p2[:len(p0)]
		p3 = p3[:len(p0)]
		for i := 0; i+1 < len(p0); i += 2 {
			x0, x1, x2, x3 := p0[i], p1[i], p2[i], p3[i]
			X0, X1, X2, X3 := p0[i+1], p1[i+1], p2[i+1], p3[i+1]
			if x0 >= twoQ {
				x0 -= twoQ
			}
			if x1 >= twoQ {
				x1 -= twoQ
			}
			if X0 >= twoQ {
				X0 -= twoQ
			}
			if X1 >= twoQ {
				X1 -= twoQ
			}
			hi2, _ := bits.Mul64(x2, w1s)
			hi3, _ := bits.Mul64(x3, w1s)
			Hi2, _ := bits.Mul64(X2, w1s)
			Hi3, _ := bits.Mul64(X3, w1s)
			v2 := x2*w1 - hi2*q // in [0, 2q)
			v3 := x3*w1 - hi3*q
			V2 := X2*w1 - Hi2*q
			V3 := X3*w1 - Hi3*q
			y0 := x0 + v2 // in [0, 4q)
			y2 := x0 + twoQ - v2
			y1 := x1 + v3
			y3 := x1 + twoQ - v3
			Y0 := X0 + V2
			Y2 := X0 + twoQ - V2
			Y1 := X1 + V3
			Y3 := X1 + twoQ - V3
			if y0 >= twoQ {
				y0 -= twoQ
			}
			if y2 >= twoQ {
				y2 -= twoQ
			}
			if Y0 >= twoQ {
				Y0 -= twoQ
			}
			if Y2 >= twoQ {
				Y2 -= twoQ
			}
			hi1, _ := bits.Mul64(y1, w2s)
			hi3b, _ := bits.Mul64(y3, w3s)
			Hi1, _ := bits.Mul64(Y1, w2s)
			Hi3b, _ := bits.Mul64(Y3, w3s)
			u1 := y1*w2 - hi1*q
			u3 := y3*w3 - hi3b*q
			U1 := Y1*w2 - Hi1*q
			U3 := Y3*w3 - Hi3b*q
			p0[i], p0[i+1] = y0+u1, Y0+U1
			p1[i], p1[i+1] = y0+twoQ-u1, Y0+twoQ-U1
			p2[i], p2[i+1] = y2+u3, Y2+U3
			p3[i], p3[i+1] = y2+twoQ-u3, Y2+twoQ-U3
		}
	}
}

// fwdRadix8Pass runs three fused forward butterfly layers (half-lengths
// length, length/2 and length/4) over the whole vector: each group of
// eight strided coefficients stays in registers across all three layers,
// cutting memory traffic per butterfly to 2/3 of the radix-4 schedule.
// Requires length ≥ 16 so every sub-block holds at least one element.
//
//lint:noalloc
//lint:domain p:<4q -> p:<4q
func (t *NTTTable) fwdRadix8Pass(p []uint64, length int) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiF, psiFS := t.psiFwd, t.psiFwdShoup
	ql := length >> 2
	kBase := n / (length << 1)
	for b, start := 0, 0; start < n; b, start = b+1, start+(length<<1) {
		k1 := kBase + b
		w1 := psiF[k1] // half-length = length
		w1s := psiFS[k1]
		w2 := psiF[2*k1] // half-length = length/2
		w2s := psiFS[2*k1]
		w3 := psiF[2*k1+1]
		w3s := psiFS[2*k1+1]
		w4 := psiF[4*k1] // half-length = length/4
		w4s := psiFS[4*k1]
		w5 := psiF[4*k1+1]
		w5s := psiFS[4*k1+1]
		w6 := psiF[4*k1+2]
		w6s := psiFS[4*k1+2]
		w7 := psiF[4*k1+3]
		w7s := psiFS[4*k1+3]
		p0 := p[start : start+ql]
		p1 := p[start+ql : start+2*ql]
		p2 := p[start+2*ql : start+3*ql]
		p3 := p[start+3*ql : start+4*ql]
		p4 := p[start+4*ql : start+5*ql]
		p5 := p[start+5*ql : start+6*ql]
		p6 := p[start+6*ql : start+7*ql]
		p7 := p[start+7*ql : start+8*ql]
		p1 = p1[:len(p0)] // bounds-check-elimination hints
		p2 = p2[:len(p0)]
		p3 = p3[:len(p0)]
		p4 = p4[:len(p0)]
		p5 = p5[:len(p0)]
		p6 = p6[:len(p0)]
		p7 = p7[:len(p0)]
		for i := range p0 {
			x0, x1, x2, x3 := p0[i], p1[i], p2[i], p3[i]
			x4, x5, x6, x7 := p4[i], p5[i], p6[i], p7[i]
			// Layer half-length = length: pairs (x_j, x_{j+4}), twiddle w1.
			if x0 >= twoQ {
				x0 -= twoQ
			}
			if x1 >= twoQ {
				x1 -= twoQ
			}
			if x2 >= twoQ {
				x2 -= twoQ
			}
			if x3 >= twoQ {
				x3 -= twoQ
			}
			hi4, _ := bits.Mul64(x4, w1s)
			hi5, _ := bits.Mul64(x5, w1s)
			hi6, _ := bits.Mul64(x6, w1s)
			hi7, _ := bits.Mul64(x7, w1s)
			v4 := x4*w1 - hi4*q // in [0, 2q)
			v5 := x5*w1 - hi5*q
			v6 := x6*w1 - hi6*q
			v7 := x7*w1 - hi7*q
			y0 := x0 + v4 // in [0, 4q)
			y4 := x0 + twoQ - v4
			y1 := x1 + v5
			y5 := x1 + twoQ - v5
			y2 := x2 + v6
			y6 := x2 + twoQ - v6
			y3 := x3 + v7
			y7 := x3 + twoQ - v7
			// Layer half-length = length/2: pairs (y0,y2),(y1,y3) under w2
			// and (y4,y6),(y5,y7) under w3.
			if y0 >= twoQ {
				y0 -= twoQ
			}
			if y1 >= twoQ {
				y1 -= twoQ
			}
			if y4 >= twoQ {
				y4 -= twoQ
			}
			if y5 >= twoQ {
				y5 -= twoQ
			}
			hi2, _ := bits.Mul64(y2, w2s)
			hi3, _ := bits.Mul64(y3, w2s)
			hi6, _ = bits.Mul64(y6, w3s)
			hi7, _ = bits.Mul64(y7, w3s)
			u2 := y2*w2 - hi2*q
			u3 := y3*w2 - hi3*q
			u6 := y6*w3 - hi6*q
			u7 := y7*w3 - hi7*q
			z0 := y0 + u2
			z2 := y0 + twoQ - u2
			z1 := y1 + u3
			z3 := y1 + twoQ - u3
			z4 := y4 + u6
			z6 := y4 + twoQ - u6
			z5 := y5 + u7
			z7 := y5 + twoQ - u7
			// Layer half-length = length/4: pairs (z0,z1),(z2,z3),(z4,z5),
			// (z6,z7) under w4..w7.
			if z0 >= twoQ {
				z0 -= twoQ
			}
			if z2 >= twoQ {
				z2 -= twoQ
			}
			if z4 >= twoQ {
				z4 -= twoQ
			}
			if z6 >= twoQ {
				z6 -= twoQ
			}
			hi1, _ := bits.Mul64(z1, w4s)
			hi3, _ = bits.Mul64(z3, w5s)
			hi5, _ = bits.Mul64(z5, w6s)
			hi7, _ = bits.Mul64(z7, w7s)
			s1 := z1*w4 - hi1*q
			s3 := z3*w5 - hi3*q
			s5 := z5*w6 - hi5*q
			s7 := z7*w7 - hi7*q
			p0[i] = z0 + s1
			p1[i] = z0 + twoQ - s1
			p2[i] = z2 + s3
			p3[i] = z2 + twoQ - s3
			p4[i] = z4 + s5
			p5[i] = z4 + twoQ - s5
			p6[i] = z6 + s7
			p7[i] = z6 + twoQ - s7
		}
	}
}

// fwdFinalStage runs the length = 2 and length = 1 layers over each
// contiguous group of four coefficients, fused with the fold from the
// lazy ranges back to canonical [0, q). Requires N ≥ 4.
//
//lint:noalloc
//lint:domain p:<4q -> p:<q
func (t *NTTTable) fwdFinalStage(p []uint64) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiF, psiFS := t.psiFwd, t.psiFwdShoup
	wA := psiF[n>>2 : n>>1]
	wAs := psiFS[n>>2 : n>>1]
	wAs = wAs[:len(wA)] // bounds-check-elimination hints
	wB := psiF[n>>1 : n]
	wBs := psiFS[n>>1 : n]
	for j := range wA {
		g := p[4*j : 4*j+4 : 4*j+4]
		wb := wB[2*j : 2*j+2 : 2*j+2]
		wbs := wBs[2*j : 2*j+2 : 2*j+2]
		w1, w1s := wA[j], wAs[j]
		w2, w2s := wb[0], wbs[0]
		w3, w3s := wb[1], wbs[1]
		x0, x1, x2, x3 := g[0], g[1], g[2], g[3]
		if x0 >= twoQ {
			x0 -= twoQ
		}
		if x1 >= twoQ {
			x1 -= twoQ
		}
		hi2, _ := bits.Mul64(x2, w1s)
		hi3, _ := bits.Mul64(x3, w1s)
		v2 := x2*w1 - hi2*q // in [0, 2q)
		v3 := x3*w1 - hi3*q
		y0 := x0 + v2 // in [0, 4q)
		y2 := x0 + twoQ - v2
		y1 := x1 + v3
		y3 := x1 + twoQ - v3
		if y0 >= twoQ {
			y0 -= twoQ
		}
		if y2 >= twoQ {
			y2 -= twoQ
		}
		hi1, _ := bits.Mul64(y1, w2s)
		hi3b, _ := bits.Mul64(y3, w3s)
		u1 := y1*w2 - hi1*q
		u3 := y3*w3 - hi3b*q
		z0 := y0 + u1 // in [0, 4q); fold to canonical below
		z1 := y0 + twoQ - u1
		z2 := y2 + u3
		z3 := y2 + twoQ - u3
		if z0 >= twoQ {
			z0 -= twoQ
		}
		if z1 >= twoQ {
			z1 -= twoQ
		}
		if z2 >= twoQ {
			z2 -= twoQ
		}
		if z3 >= twoQ {
			z3 -= twoQ
		}
		if z0 >= q {
			z0 -= q
		}
		if z1 >= q {
			z1 -= q
		}
		if z2 >= q {
			z2 -= q
		}
		if z3 >= q {
			z3 -= q
		}
		g[0], g[1], g[2], g[3] = z0, z1, z2, z3
	}
}

// fwdN2 is the whole forward transform for N == 2: the single length = 1
// butterfly, folded to canonical output.
//
//lint:noalloc
//lint:domain p:<q -> p:<q
func (t *NTTTable) fwdN2(p []uint64) {
	q := t.M.Q
	twoQ := q << 1
	u, x := p[0], p[1]
	hi, _ := bits.Mul64(x, t.psiFwdShoup[1])
	v := x*t.psiFwd[1] - hi*q // in [0, 2q)
	r0 := u + v
	if r0 >= q {
		r0 -= q
	}
	if r0 >= q {
		r0 -= q
	}
	r1 := u + twoQ - v
	if r1 >= twoQ {
		r1 -= twoQ
	}
	if r1 >= q {
		r1 -= q
	}
	p[0], p[1] = r0, r1
}

// Inverse transforms p (NTT domain, Forward's output order) in place back
// to coefficient order, including the 1/N scaling.
//
// Lazy-reduction invariant: every coefficient is < 2q at the start of a
// layer. The Gentleman–Sande butterfly emits u+v folded back into
// [0, 2q) and (u−v+2q)·w in [0, 2q) from the subtraction-free Shoup
// multiply. The last layer is fused with the 1/N scaling and performs
// the full Shoup reduction, so the output is canonical [0, q).
//
// Mirror of Forward: after the fused first stage (layers l = 1, 2), the
// middle-layer remainder (radix-4 passes, or one radix-2 layer when only
// a single middle layer exists) runs first, then radix-8 passes consume
// the rest three at a time up to the fused final layer.
//
//lint:noalloc
//lint:domain p:<q -> p:<q
func (t *NTTTable) Inverse(p []uint64) {
	n := t.N
	p = p[:n]
	l := 1
	if n >= 8 {
		t.invFirstStage(p)
		l = 4
		switch (t.LogN - 3) % 3 {
		case 1:
			if t.LogN >= 7 {
				// Four or more middle layers: two radix-4 passes beat a
				// radix-8 pass plus a lone radix-2 layer.
				t.invRadix4Pass(p, l)
				l <<= 2
				t.invRadix4Pass(p, l)
				l <<= 2
			} else if l == n>>2 { // logN == 4: single middle layer
				t.invRadix2Layer(p, l)
				l <<= 1
			}
		case 2: // logN ≥ 5, so the pass always fits
			t.invRadix4Pass(p, l)
			l <<= 2
		}
		for ; l <= n>>4; l <<= 3 {
			t.invRadix8Pass(p, l)
		}
	}
	if n >= 4 && l == n>>2 { // n == 4: single butterfly layer before the final
		t.invRadix2Layer(p, l)
	}
	t.invFinalLayer(p)
}

// invFirstStage runs the fused l = 1 and l = 2 inverse layers over each
// contiguous group of four coefficients, so every group is loaded and
// stored once. Requires N ≥ 8.
//
//lint:noalloc
//lint:domain p:<2q -> p:<2q
func (t *NTTTable) invFirstStage(p []uint64) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiI, psiIS := t.psiInv, t.psiInvShoup
	wOut := psiI[n>>2 : n>>1]
	wOutS := psiIS[n>>2 : n>>1]
	wOutS = wOutS[:len(wOut)] // bounds-check-elimination hints
	wIn := psiI[n>>1 : n]
	wInS := psiIS[n>>1 : n]
	for b := range wOut {
		g := p[4*b : 4*b+4 : 4*b+4]
		wi := wIn[2*b : 2*b+2 : 2*b+2]
		wis := wInS[2*b : 2*b+2 : 2*b+2]
		wo, wos := wOut[b], wOutS[b]
		x0, x1, x2, x3 := g[0], g[1], g[2], g[3]
		// length = 1 layer: pairs (x0,x1) and (x2,x3).
		y0 := x0 + x1 // in [0, 4q)
		if y0 >= twoQ {
			y0 -= twoQ
		}
		d0 := x0 + twoQ - x1
		hi0, _ := bits.Mul64(d0, wis[0])
		y1 := d0*wi[0] - hi0*q // in [0, 2q)
		y2 := x2 + x3
		if y2 >= twoQ {
			y2 -= twoQ
		}
		d2 := x2 + twoQ - x3
		hi2, _ := bits.Mul64(d2, wis[1])
		y3 := d2*wi[1] - hi2*q
		// length = 2 layer: pairs (y0,y2) and (y1,y3), shared twiddle.
		z0 := y0 + y2
		if z0 >= twoQ {
			z0 -= twoQ
		}
		e0 := y0 + twoQ - y2
		hi1, _ := bits.Mul64(e0, wos)
		z2 := e0*wo - hi1*q
		z1 := y1 + y3
		if z1 >= twoQ {
			z1 -= twoQ
		}
		e1 := y1 + twoQ - y3
		hi3, _ := bits.Mul64(e1, wos)
		z3 := e1*wo - hi3*q
		g[0], g[1], g[2], g[3] = z0, z1, z2, z3
	}
}

// invRadix4Pass runs two fused inverse layers (half-lengths l and 2l)
// over the whole vector, mirroring the forward transform's stage
// structure with Gentleman-Sande butterflies.
//
//lint:noalloc
//lint:domain p:<2q -> p:<2q
func (t *NTTTable) invRadix4Pass(p []uint64, l int) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiI, psiIS := t.psiInv, t.psiInvShoup
	kBase := n / (l << 2)
	for b, start := 0, 0; start < n; b, start = b+1, start+(l<<2) {
		kOut := kBase + b
		wo := psiI[kOut]
		wos := psiIS[kOut]
		wi0 := psiI[2*kOut]
		wi0s := psiIS[2*kOut]
		wi1 := psiI[2*kOut+1]
		wi1s := psiIS[2*kOut+1]
		p0 := p[start : start+l]
		p1 := p[start+l : start+2*l]
		p2 := p[start+2*l : start+3*l]
		p3 := p[start+3*l : start+4*l]
		p1 = p1[:len(p0)] // bounds-check-elimination hints
		p2 = p2[:len(p0)]
		p3 = p3[:len(p0)]
		for i := range p0 {
			x0, x1, x2, x3 := p0[i], p1[i], p2[i], p3[i]
			y0 := x0 + x1 // in [0, 4q)
			if y0 >= twoQ {
				y0 -= twoQ
			}
			d0 := x0 + twoQ - x1
			hi0, _ := bits.Mul64(d0, wi0s)
			y1 := d0*wi0 - hi0*q // in [0, 2q)
			y2 := x2 + x3
			if y2 >= twoQ {
				y2 -= twoQ
			}
			d2 := x2 + twoQ - x3
			hi2, _ := bits.Mul64(d2, wi1s)
			y3 := d2*wi1 - hi2*q
			z0 := y0 + y2
			if z0 >= twoQ {
				z0 -= twoQ
			}
			e0 := y0 + twoQ - y2
			hi1, _ := bits.Mul64(e0, wos)
			z2 := e0*wo - hi1*q
			z1 := y1 + y3
			if z1 >= twoQ {
				z1 -= twoQ
			}
			e1 := y1 + twoQ - y3
			hi3, _ := bits.Mul64(e1, wos)
			z3 := e1*wo - hi3*q
			p0[i], p1[i], p2[i], p3[i] = z0, z1, z2, z3
		}
	}
}

// invRadix8Pass runs three fused inverse layers (half-lengths l, 2l and
// 4l) over the whole vector: each group of eight strided coefficients
// stays in registers across all three layers. Requires l ≤ N/16 so the
// consumed layers all lie strictly inside the middle of the schedule.
//
//lint:noalloc
//lint:domain p:<2q -> p:<2q
func (t *NTTTable) invRadix8Pass(p []uint64, l int) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiI, psiIS := t.psiInv, t.psiInvShoup
	kBase := n / (l << 3)
	for b, start := 0, 0; start < n; b, start = b+1, start+(l<<3) {
		k8 := kBase + b
		wo := psiI[k8] // half-length = 4l
		wos := psiIS[k8]
		wm0 := psiI[2*k8] // half-length = 2l
		wm0s := psiIS[2*k8]
		wm1 := psiI[2*k8+1]
		wm1s := psiIS[2*k8+1]
		wi0 := psiI[4*k8] // half-length = l
		wi0s := psiIS[4*k8]
		wi1 := psiI[4*k8+1]
		wi1s := psiIS[4*k8+1]
		wi2 := psiI[4*k8+2]
		wi2s := psiIS[4*k8+2]
		wi3 := psiI[4*k8+3]
		wi3s := psiIS[4*k8+3]
		p0 := p[start : start+l]
		p1 := p[start+l : start+2*l]
		p2 := p[start+2*l : start+3*l]
		p3 := p[start+3*l : start+4*l]
		p4 := p[start+4*l : start+5*l]
		p5 := p[start+5*l : start+6*l]
		p6 := p[start+6*l : start+7*l]
		p7 := p[start+7*l : start+8*l]
		p1 = p1[:len(p0)] // bounds-check-elimination hints
		p2 = p2[:len(p0)]
		p3 = p3[:len(p0)]
		p4 = p4[:len(p0)]
		p5 = p5[:len(p0)]
		p6 = p6[:len(p0)]
		p7 = p7[:len(p0)]
		for i := range p0 {
			x0, x1, x2, x3 := p0[i], p1[i], p2[i], p3[i]
			x4, x5, x6, x7 := p4[i], p5[i], p6[i], p7[i]
			// Layer half-length = l: pairs (x0,x1),(x2,x3),(x4,x5),(x6,x7)
			// under wi0..wi3.
			a0 := x0 + x1 // in [0, 4q)
			if a0 >= twoQ {
				a0 -= twoQ
			}
			d0 := x0 + twoQ - x1
			hi0, _ := bits.Mul64(d0, wi0s)
			a1 := d0*wi0 - hi0*q // in [0, 2q)
			a2 := x2 + x3
			if a2 >= twoQ {
				a2 -= twoQ
			}
			d2 := x2 + twoQ - x3
			hi2, _ := bits.Mul64(d2, wi1s)
			a3 := d2*wi1 - hi2*q
			a4 := x4 + x5
			if a4 >= twoQ {
				a4 -= twoQ
			}
			d4 := x4 + twoQ - x5
			hi4, _ := bits.Mul64(d4, wi2s)
			a5 := d4*wi2 - hi4*q
			a6 := x6 + x7
			if a6 >= twoQ {
				a6 -= twoQ
			}
			d6 := x6 + twoQ - x7
			hi6, _ := bits.Mul64(d6, wi3s)
			a7 := d6*wi3 - hi6*q
			// Layer half-length = 2l: pairs (a0,a2),(a1,a3) under wm0 and
			// (a4,a6),(a5,a7) under wm1.
			b0 := a0 + a2
			if b0 >= twoQ {
				b0 -= twoQ
			}
			e0 := a0 + twoQ - a2
			hi0, _ = bits.Mul64(e0, wm0s)
			b2 := e0*wm0 - hi0*q
			b1 := a1 + a3
			if b1 >= twoQ {
				b1 -= twoQ
			}
			e1 := a1 + twoQ - a3
			hi2, _ = bits.Mul64(e1, wm0s)
			b3 := e1*wm0 - hi2*q
			b4 := a4 + a6
			if b4 >= twoQ {
				b4 -= twoQ
			}
			e4 := a4 + twoQ - a6
			hi4, _ = bits.Mul64(e4, wm1s)
			b6 := e4*wm1 - hi4*q
			b5 := a5 + a7
			if b5 >= twoQ {
				b5 -= twoQ
			}
			e5 := a5 + twoQ - a7
			hi6, _ = bits.Mul64(e5, wm1s)
			b7 := e5*wm1 - hi6*q
			// Layer half-length = 4l: pairs (b_j, b_{j+4}) under wo.
			c0 := b0 + b4
			if c0 >= twoQ {
				c0 -= twoQ
			}
			f0 := b0 + twoQ - b4
			hi0, _ = bits.Mul64(f0, wos)
			c4 := f0*wo - hi0*q
			c1 := b1 + b5
			if c1 >= twoQ {
				c1 -= twoQ
			}
			f1 := b1 + twoQ - b5
			hi2, _ = bits.Mul64(f1, wos)
			c5 := f1*wo - hi2*q
			c2 := b2 + b6
			if c2 >= twoQ {
				c2 -= twoQ
			}
			f2 := b2 + twoQ - b6
			hi4, _ = bits.Mul64(f2, wos)
			c6 := f2*wo - hi4*q
			c3 := b3 + b7
			if c3 >= twoQ {
				c3 -= twoQ
			}
			f3 := b3 + twoQ - b7
			hi6, _ = bits.Mul64(f3, wos)
			c7 := f3*wo - hi6*q
			p0[i], p1[i], p2[i], p3[i] = c0, c1, c2, c3
			p4[i], p5[i], p6[i], p7[i] = c4, c5, c6, c7
		}
	}
}

// invRadix2Layer runs one inverse butterfly layer of half-length l.
//
//lint:noalloc
//lint:domain p:<2q -> p:<2q
func (t *NTTTable) invRadix2Layer(p []uint64, l int) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	psiI, psiIS := t.psiInv, t.psiInvShoup
	kBase := n / (l << 1)
	for b, start := 0, 0; start < n; b, start = b+1, start+(l<<1) {
		w := psiI[kBase+b]
		ws := psiIS[kBase+b]
		a := p[start : start+l]
		bb := p[start+l : start+(l<<1)]
		bb = bb[:len(a)] // bounds-check-elimination hint
		for i := range a {
			u := a[i]
			v := bb[i]
			s := u + v // in [0, 4q)
			if s >= twoQ {
				s -= twoQ
			}
			a[i] = s
			d := u + twoQ - v // in [0, 4q)
			hi, _ := bits.Mul64(d, ws)
			bb[i] = d*w - hi*q // in [0, 2q)
		}
	}
}

// invFinalLayer runs the last inverse layer (half-length N/2), fused with
// the 1/N scaling; exact MulShoup reductions land every output in
// canonical [0, q).
//
//lint:noalloc
//lint:domain p:<2q -> p:<q
func (t *NTTTable) invFinalLayer(p []uint64) {
	q := t.M.Q
	twoQ := q << 1
	n := t.N
	half := n >> 1
	a := p[:half]
	b := p[half:]
	b = b[:len(a)] // bounds-check-elimination hint
	nInv, nInvS := t.nInv, t.nInvShoup
	wN, wNS := t.psiInvN, t.psiInvNS
	for i := range a {
		u := a[i]
		v := b[i]
		hi, _ := bits.Mul64(u+v, nInvS)
		r := (u+v)*nInv - hi*q
		c := r - q
		a[i] = c + (q & uint64(int64(c)>>63))
		d := u + twoQ - v
		hi, _ = bits.Mul64(d, wNS)
		r = d*wN - hi*q
		c = r - q
		b[i] = c + (q & uint64(int64(c)>>63))
	}
}
