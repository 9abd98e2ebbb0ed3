// Package coeffenc implements the coefficient encoding of Section 3.2.1:
// convolution and fully-connected layers become negacyclic polynomial
// products (PMult + HAdd only — no homomorphic rotations). Two packing
// strategies are provided:
//
//   - Athena order: output channels are packed first, so one result
//     ciphertext carries as many output channels as fit. This maximizes
//     the valid-data ratio of the result polynomial (Table 2) and
//     minimizes the number of ciphertexts flowing into sample extraction.
//   - Cheetah order: input channels are packed first (as in the Cheetah
//     system), minimizing ciphertext multiplications at the cost of
//     results scattered across many mostly-empty ciphertexts.
//
// For a 1×1 stride-s kernel the Athena strategy additionally subsamples
// the never-read input pixels ("adaptively selects H' and W'" in the
// paper), shrinking the footprint by s².
package coeffenc

import "fmt"

// Strategy selects the packing order.
type Strategy int

const (
	// AthenaOrder packs output channels first (Table 2's Athena column).
	AthenaOrder Strategy = iota
	// CheetahOrder packs input channels first (Table 2's Cheetah column).
	CheetahOrder
)

func (s Strategy) String() string {
	if s == AthenaOrder {
		return "athena"
	}
	return "cheetah"
}

// ConvShape describes one convolution layer. A fully-connected layer of
// F inputs and G outputs is the special case H=W=1, Cin=F, Cout=G, K=1.
type ConvShape struct {
	H, W      int // input feature map height and width
	Cin, Cout int // channel counts
	K         int // kernel size (K×K)
	Stride    int
	Pad       int
}

// FCShape returns the conv shape realizing an F→G fully-connected layer.
func FCShape(f, g int) ConvShape {
	return ConvShape{H: 1, W: 1, Cin: f, Cout: g, K: 1, Stride: 1, Pad: 0}
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.H+2*s.Pad-s.K)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.W+2*s.Pad-s.K)/s.Stride + 1 }

// MACsPerOutput returns the multiply-accumulate count feeding one output
// value (used for plaintext-modulus sizing, Fig. 4).
func (s ConvShape) MACsPerOutput() int { return s.Cin * s.K * s.K }

// Outputs returns the total output element count.
func (s ConvShape) Outputs() int { return s.Cout * s.OutH() * s.OutW() }

// Plan is a compiled mapping of one convolution layer onto ring
// polynomials of degree N.
type Plan struct {
	Shape    ConvShape
	N        int
	Strategy Strategy

	// Effective encoded geometry (after padding and, for the Athena 1×1
	// strided case, subsampling).
	EH, EW   int // encoded feature map dims (includes padding)
	EK       int // encoded kernel size
	EStride  int // encoded stride
	subEvery int // input subsample factor (1 = none)

	CB, OB int // input channels per ciphertext, output channels per result
	T      int // the Eq. 1 offset

	InBatches  int // ceil(Cin/CB): input ciphertexts
	OutBatches int // ceil(Cout/OB): result ciphertexts
}

// NewPlan compiles shape onto degree-N polynomials with the given
// strategy. It fails when even a single channel pair does not fit.
func NewPlan(shape ConvShape, n int, strategy Strategy) (*Plan, error) {
	if shape.H < 1 || shape.W < 1 || shape.Cin < 1 || shape.Cout < 1 || shape.K < 1 || shape.Stride < 1 || shape.Pad < 0 {
		return nil, fmt.Errorf("coeffenc: invalid shape %+v", shape)
	}
	if shape.K > shape.H+2*shape.Pad || shape.K > shape.W+2*shape.Pad {
		return nil, fmt.Errorf("coeffenc: kernel larger than padded input")
	}
	p := &Plan{Shape: shape, N: n, Strategy: strategy, subEvery: 1}
	p.EH = shape.H + 2*shape.Pad
	p.EW = shape.W + 2*shape.Pad
	p.EK = shape.K
	p.EStride = shape.Stride
	if strategy == AthenaOrder && shape.K == 1 && shape.Stride > 1 && shape.Pad == 0 {
		// Only every stride-th pixel is ever read: subsample.
		p.subEvery = shape.Stride
		p.EH = shape.OutH()
		p.EW = shape.OutW()
		p.EStride = 1
	}

	fits := func(cb, ob int) bool {
		t := p.tFor(cb, ob)
		maxIdx := t + (shape.OutH()-1)*p.EStride*p.EW + (shape.OutW()-1)*p.EStride
		return maxIdx < n
	}
	if !fits(1, 1) {
		return nil, fmt.Errorf("coeffenc: layer %+v does not fit in degree %d", shape, n)
	}

	switch strategy {
	case AthenaOrder:
		// Pack as many output channels as possible (all of Cout when it
		// fits, else the largest power of two), then grow input channels.
		p.OB = largestFit(shape.Cout, func(ob int) bool { return fits(1, ob) })
		p.CB = 1
		for cb := shape.Cin; cb >= 1; cb-- {
			if fits(cb, p.OB) {
				p.CB = cb
				break
			}
		}
	case CheetahOrder:
		p.CB = 1
		for cb := shape.Cin; cb >= 1; cb-- {
			if fits(cb, 1) {
				p.CB = cb
				break
			}
		}
		p.OB = largestFit(shape.Cout, func(ob int) bool { return fits(p.CB, ob) })
	default:
		return nil, fmt.Errorf("coeffenc: unknown strategy %d", strategy)
	}
	p.T = p.tFor(p.CB, p.OB)
	p.InBatches = (shape.Cin + p.CB - 1) / p.CB
	p.OutBatches = (shape.Cout + p.OB - 1) / p.OB
	return p, nil
}

// largestFit returns cout if it fits, else the largest power of two ≤
// cout that fits (at least 1).
func largestFit(cout int, fits func(int) bool) int {
	if fits(cout) {
		return cout
	}
	ob := 1
	for ob*2 < cout && fits(ob*2) {
		ob *= 2
	}
	return ob
}

// SubFactor returns the input subsampling factor applied by the encoding
// (1 when no subsampling; Stride for the Athena 1×1 strided case).
func (p *Plan) SubFactor() int { return p.subEvery }

// InputLen returns CB·EH·EW: EncodeInput writes only coefficients below
// it, so one input batch occupies that many leading coefficients.
func (p *Plan) InputLen() int { return p.CB * p.EH * p.EW }

// tFor computes the Eq. 1 offset T for a (cb, ob) packing.
func (p *Plan) tFor(cb, ob int) int {
	hw := p.EH * p.EW
	return hw*(ob*cb-1) + p.EW*(p.EK-1) + p.EK - 1
}

// EncodeInput places input channels [ib·CB, ib·CB+CB) into a coefficient
// vector per Eq. 1 (padded and, if applicable, subsampled). The input
// tensor is indexed m[c][h][w] over the unpadded geometry.
func (p *Plan) EncodeInput(m [][][]int64, ib int) []int64 {
	s := p.Shape
	out := make([]int64, p.N)
	hw := p.EH * p.EW
	for cl := 0; cl < p.CB; cl++ {
		c := ib*p.CB + cl
		if c >= s.Cin {
			break
		}
		for eh := 0; eh < p.EH; eh++ {
			for ew := 0; ew < p.EW; ew++ {
				// With subsampling Pad is zero, so this covers both cases.
				h := eh*p.subEvery - s.Pad
				w := ew*p.subEvery - s.Pad
				if h < 0 || h >= s.H || w < 0 || w >= s.W {
					continue // zero padding
				}
				out[cl*hw+eh*p.EW+ew] = m[c][h][w]
			}
		}
	}
	return out
}

// EncodeKernel places the kernels connecting input batch ib to output
// batch ob into a coefficient vector per Eq. 1. k is indexed
// k[cout][cin][i][j].
func (p *Plan) EncodeKernel(k [][][][]int64, ib, ob int) []int64 {
	s := p.Shape
	out := make([]int64, p.N)
	hw := p.EH * p.EW
	for ol := 0; ol < p.OB; ol++ {
		co := ob*p.OB + ol
		if co >= s.Cout {
			break
		}
		for cl := 0; cl < p.CB; cl++ {
			ci := ib*p.CB + cl
			if ci >= s.Cin {
				break
			}
			for i := 0; i < s.K; i++ {
				for j := 0; j < s.K; j++ {
					idx := p.T - ol*p.CB*hw - cl*hw - i*p.EW - j
					out[idx] = k[co][ci][i][j]
				}
			}
		}
	}
	return out
}

// OutputCoeff returns the coefficient index where output (olocal, y, x)
// of a result ciphertext lands (y, x in output coordinates).
func (p *Plan) OutputCoeff(olocal, y, x int) int {
	hw := p.EH * p.EW
	return p.T - olocal*p.CB*hw + y*p.EStride*p.EW + x*p.EStride
}

// ValidEntry identifies one valid output value inside a result
// polynomial.
type ValidEntry struct {
	Coeff int // coefficient index
	Cout  int // global output channel
	Y, X  int // output coordinates
}

// ValidCoeffs lists the valid outputs of result batch ob in
// (channel, y, x) order.
func (p *Plan) ValidCoeffs(ob int) []ValidEntry {
	s := p.Shape
	out := make([]ValidEntry, 0, max(0, min(p.OB, s.Cout-ob*p.OB))*s.OutH()*s.OutW())
	for ol := 0; ol < p.OB; ol++ {
		co := ob*p.OB + ol
		if co >= s.Cout {
			break
		}
		for y := 0; y < s.OutH(); y++ {
			for x := 0; x < s.OutW(); x++ {
				out = append(out, ValidEntry{Coeff: p.OutputCoeff(ol, y, x), Cout: co, Y: y, X: x})
			}
		}
	}
	return out
}

// ValidRatio returns the fraction of result-polynomial coefficients that
// carry outputs (Table 2's metric), aggregated over all result
// ciphertexts.
func (p *Plan) ValidRatio() float64 {
	return float64(p.Shape.Outputs()) / float64(p.OutBatches*p.N)
}

// Counts returns the homomorphic operation counts of the layer:
// PMult products and HAdd accumulations.
func (p *Plan) Counts() (pmult, hadd int) {
	pmult = p.InBatches * p.OutBatches
	hadd = (p.InBatches - 1) * p.OutBatches
	if hadd < 0 {
		hadd = 0
	}
	return pmult, hadd
}

// Execute runs the layer in the clear (negacyclic polynomial arithmetic
// over the integers) — the reference the homomorphic path is tested
// against, and the fast path for plaintext shadow execution. It returns
// one result coefficient vector per output batch.
func (p *Plan) Execute(m [][][]int64, k [][][][]int64) [][]int64 {
	results := make([][]int64, p.OutBatches)
	for ob := 0; ob < p.OutBatches; ob++ {
		acc := make([]int64, p.N)
		for ib := 0; ib < p.InBatches; ib++ {
			mv := p.EncodeInput(m, ib)
			kv := p.EncodeKernel(k, ib, ob)
			negacyclicMulAdd(mv, kv, acc)
		}
		results[ob] = acc
	}
	return results
}

// negacyclicMulAdd computes acc += a·b mod (X^N+1) over the integers,
// skipping zero coefficients (encodings are sparse).
func negacyclicMulAdd(a, b, acc []int64) {
	n := len(a)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			if bj == 0 {
				continue
			}
			k := i + j
			if k < n {
				acc[k] += ai * bj
			} else {
				acc[k-n] -= ai * bj
			}
		}
	}
}

// Decode extracts the valid outputs of result batch ob from a result
// coefficient vector into out[cout][y][x] (which must be pre-allocated
// with the full output geometry).
func (p *Plan) Decode(res []int64, ob int, out [][][]int64) {
	for _, v := range p.ValidCoeffs(ob) {
		out[v.Cout][v.Y][v.X] = res[v.Coeff]
	}
}
