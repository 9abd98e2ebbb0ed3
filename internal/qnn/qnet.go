package qnn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"athena/internal/coeffenc"
	"athena/internal/par"
)

// Activation enumerates the non-linearities an Athena remap LUT fuses.
type Activation int

const (
	// ActNone requantizes without a non-linearity.
	ActNone Activation = iota
	// ActReLU fuses the rectifier into the remap.
	ActReLU
	// ActSigmoid fuses the logistic function (Athena's FBS represents it
	// exactly as a table — no series approximation).
	ActSigmoid
	// ActGELU fuses the Gaussian-error linear unit.
	ActGELU
)

// QOp is one integer operation of a quantized network. Every QOp's
// integer semantics are exactly what the FHE engine computes (up to the
// e_ms noise), so the plaintext path is the bit-exact reference.
type QOp interface {
	Apply(x *IntTensor) *IntTensor
	OpName() string
}

// QConv is a quantized convolution (or dense layer) with its fused
// remap+activation: out = clamp(act(round((conv(x)+bias)·Multiplier))).
type QConv struct {
	Shape      coeffenc.ConvShape
	Weights    [][][][]int64 // [cout][cin][k][k]
	Bias       []int64       // accumulator scale
	Act        Activation
	Multiplier float64 // s_in·s_w/s_out
	ActBits    int
	IsDense    bool

	InScale, WScale, OutScale float64
	MaxAcc                    int64 // calibrated |accumulator| bound (Fig. 4)
}

// Remap applies the fused requantization+activation to one accumulator
// value — exactly the function Athena's FBS LUT encodes. For the
// non-piecewise-linear activations (sigmoid, GELU) the accumulator is
// dequantized with InScale·WScale, the real function applied, and the
// result requantized at OutScale: the LUT carries the exact table, not
// an approximation.
func (q *QConv) Remap(acc int64) int64 {
	lim := int64(1)<<(q.ActBits-1) - 1
	var y int64
	switch q.Act {
	case ActSigmoid:
		v := float64(acc) * q.InScale * q.WScale
		y = int64(math.Round(sigmoid(v) / q.OutScale))
		if y < 0 {
			y = 0
		}
	case ActGELU:
		v := float64(acc) * q.InScale * q.WScale
		y = int64(math.Round(gelu(v) / q.OutScale))
		if y < -lim {
			y = -lim
		}
	default:
		y = int64(math.Round(float64(acc) * q.Multiplier))
		if q.Act == ActReLU {
			if y < 0 {
				y = 0
			}
		} else if y < -lim {
			y = -lim
		}
	}
	if y > lim {
		y = lim
	}
	return y
}

// Apply runs the integer convolution and remap.
func (q *QConv) Apply(x *IntTensor) *IntTensor { return q.remap(q.Accumulate(x)) }

// remap applies Remap to every accumulator of acc, in place.
func (q *QConv) remap(acc *IntTensor) *IntTensor {
	for i, v := range acc.Data {
		acc.Data[i] = q.Remap(v)
	}
	return acc
}

// Accumulate runs the convolution without the remap: the accumulators
// an FHE linear layer outputs, and what Walk's hook sees. Each weight
// adds its products into every output whose window puts it inside the
// input (the zero padding adds nothing); integer sums are exact in any
// order.
func (q *QConv) Accumulate(x *IntTensor) *IntTensor {
	s := q.Shape
	if x.Len() != s.Cin*s.H*s.W {
		panic(fmt.Sprintf("qnn: %s expects %d×%d×%d input, got %d elements", q.OpName(), s.Cin, s.H, s.W, x.Len()))
	}
	oh, ow := s.OutH(), s.OutW()
	out := NewIntTensor(s.Cout, oh, ow)
	for co := 0; co < s.Cout; co++ {
		o := out.Data[co*oh*ow : (co+1)*oh*ow]
		for k := range o {
			o[k] = q.Bias[co]
		}
		for ci, kernel := range q.Weights[co][:s.Cin] {
			plane := x.Data[ci*s.H*s.W : (ci+1)*s.H*s.W]
			for i, ws := range kernel[:s.K] {
				ylo, yhi := taps(oh, s.H, s.Stride, s.Pad, i)
				for j, w := range ws[:s.K] {
					xlo, xhi := taps(ow, s.W, s.Stride, s.Pad, j)
					for y := ylo; y < yhi; y++ {
						row, orow := plane[(y*s.Stride+i-s.Pad)*s.W:], o[y*ow:]
						for xx := xlo; xx < xhi; xx++ {
							orow[xx] += w * row[xx*s.Stride+j-s.Pad]
						}
					}
				}
			}
		}
	}
	return out
}

// taps returns the output positions [lo, hi), of n, whose kernel tap t
// reads inside an input of size values at the given stride and padding.
func taps(n, size, stride, pad, t int) (lo, hi int) {
	last := size - 1 + pad - t // the greatest position·stride inside
	if last < 0 {
		return 0, 0
	}
	return max(0, (pad-t+stride-1)/stride), min(n, last/stride+1)
}

// OpName identifies the operation.
func (q *QConv) OpName() string {
	if q.IsDense {
		return fmt.Sprintf("qdense_%d->%d", q.Shape.Cin, q.Shape.Cout)
	}
	return fmt.Sprintf("qconv%dx%d_%d->%d", q.Shape.K, q.Shape.K, q.Shape.Cin, q.Shape.Cout)
}

// QMaxPool is integer max pooling (K×K, stride K); under FHE it runs as a
// max tree of FBS lookups.
type QMaxPool struct{ K int }

// Apply takes block maxima.
func (q *QMaxPool) Apply(x *IntTensor) *IntTensor {
	oh, ow := x.H/q.K, x.W/q.K
	out := NewIntTensor(x.C, oh, ow)
	for c := 0; c < x.C; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := x.At(c, y*q.K, xx*q.K)
				for i := 0; i < q.K; i++ {
					for j := 0; j < q.K; j++ {
						if v := x.At(c, y*q.K+i, xx*q.K+j); v > best {
							best = v
						}
					}
				}
				out.Set(c, y, xx, best)
			}
		}
	}
	return out
}

// OpName identifies the operation.
func (q *QMaxPool) OpName() string { return fmt.Sprintf("qmaxpool%d", q.K) }

// QAvgPool is integer average pooling: the window sum followed by the
// divide-by-k² LUT (Section 3.2.3's average pooling).
type QAvgPool struct{ K int }

// Apply sums each window and divides with rounding — the LUT(x) =
// round(x/k²) function.
func (q *QAvgPool) Apply(x *IntTensor) *IntTensor {
	oh, ow := x.H/q.K, x.W/q.K
	out := NewIntTensor(x.C, oh, ow)
	div := int64(q.K * q.K)
	for c := 0; c < x.C; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				var acc int64
				for i := 0; i < q.K; i++ {
					for j := 0; j < q.K; j++ {
						acc += x.At(c, y*q.K+i, xx*q.K+j)
					}
				}
				out.Set(c, y, xx, RoundDiv(acc, div))
			}
		}
	}
	return out
}

// RoundDiv is a/b rounded half away from zero: the average pool's
// divide-back, which the encrypted pool's table must reproduce exactly.
func RoundDiv(a, b int64) int64 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// OpName identifies the operation.
func (q *QAvgPool) OpName() string { return fmt.Sprintf("qavgpool%d", q.K) }

// QBlock is a structural unit of a quantized network: a QSeq or a
// QResidual.
type QBlock interface {
	Ops() []QOp
}

// QSeq applies ops in order.
type QSeq []QOp

// Ops returns the contained operations.
func (s QSeq) Ops() []QOp { return s }

// QResidual joins a quantized body and shortcut with an integer add and
// the post-add fused LUT: out = clamp(round(relu(body+shortcut)·Multiplier)).
// The multiplier requantizes the sum to its own calibrated scale —
// without it, chains of identity-shortcut blocks drift into the
// activation clamp.
type QResidual struct {
	Body       QSeq
	Shortcut   QSeq // empty = identity
	ActBits    int
	Multiplier float64 // 0 or 1 = no rescale
}

// JoinRemap applies the block's post-add LUT to one summed value.
func (r *QResidual) JoinRemap(y int64) int64 {
	if y < 0 {
		y = 0
	}
	if m := r.Multiplier; m != 0 && m != 1 {
		y = int64(math.Round(float64(y) * m))
	}
	lim := int64(1)<<(r.ActBits-1) - 1
	if y > lim {
		y = lim
	}
	return y
}

// Ops returns all contained operations (body then shortcut).
func (r *QResidual) Ops() []QOp {
	return append(append([]QOp{}, r.Body...), r.Shortcut...)
}

// QNetwork is a fully quantized network: the exact integer program the
// Athena framework executes under encryption.
type QNetwork struct {
	Name          string
	InC, InH, InW int
	WBits, ABits  int
	InScale       float64
	Blocks        []QBlock
}

// QuantizeInput converts a float input tensor to its integer encoding.
func (q *QNetwork) QuantizeInput(x *Tensor) *IntTensor {
	out := NewIntTensor(x.C, x.H, x.W)
	lim := int64(1)<<(q.ABits-1) - 1
	for i, v := range x.Data {
		iv := int64(math.Round(v / q.InScale))
		if iv > lim {
			iv = lim
		}
		if iv < -lim {
			iv = -lim
		}
		out.Data[i] = iv
	}
	return out
}

// ForwardInt runs the integer network and returns the final tensor
// (logits for classifiers).
func (q *QNetwork) ForwardInt(x *IntTensor) *IntTensor { return q.Walk(x, nil) }

// Walk runs the integer network on x. hook, when not nil, gets each
// QConv's accumulator tensor before its remap, in Convs() order with the
// conv's index there; it may read the values or change them in place
// (AccuracyNoisy adds e_ms, noise.Fig4Stats observes).
func (q *QNetwork) Walk(x *IntTensor, hook func(i int, c *QConv, acc *IntTensor)) *IntTensor {
	next := 0
	seq := func(ops []QOp, x *IntTensor) *IntTensor {
		for _, op := range ops {
			c, ok := op.(*QConv)
			if !ok {
				x = op.Apply(x)
				continue
			}
			acc := c.Accumulate(x)
			if hook != nil {
				hook(next, c, acc)
			}
			next++
			x = c.remap(acc)
		}
		return x
	}
	for _, b := range q.Blocks {
		r, ok := b.(*QResidual)
		if !ok {
			x = seq(b.Ops(), x)
			continue
		}
		out := seq(r.Body, x).Clone()
		for i, v := range seq(r.Shortcut, x).Data {
			out.Data[i] = r.JoinRemap(out.Data[i] + v)
		}
		x = out
	}
	return x
}

// Predict classifies a float input through the quantized pipeline.
func (q *QNetwork) Predict(x *Tensor) int {
	return Argmax(q.ForwardInt(q.QuantizeInput(x)).Data)
}

// AccuracyInt measures top-1 accuracy of the quantized network.
func (q *QNetwork) AccuracyInt(ds *Dataset) float64 {
	return accuracy(ds, func(_ int, x *Tensor) int { return q.Predict(x) })
}

// AccuracyNoisy measures top-1 accuracy with e_ms of width sigma added to
// every accumulator before its remap, where modulus switching adds it in
// the real pipeline; sample i draws from its own deterministic stream.
func (q *QNetwork) AccuracyNoisy(ds *Dataset, sigma float64, seed uint64) float64 {
	return accuracy(ds, func(i int, x *Tensor) int {
		nm := NewNoiseModel(sigma, seed+uint64(i)*0x9e37)
		return Argmax(q.Walk(q.QuantizeInput(x), func(_ int, _ *QConv, acc *IntTensor) {
			for j := range acc.Data {
				acc.Data[j] += nm.Sample()
			}
		}).Data)
	})
}

// accuracy is the share of ds's samples that predict(i, X) labels
// correctly, the samples fanned out over par.ForEach.
func accuracy(ds *Dataset, predict func(i int, x *Tensor) int) float64 {
	correct := make([]int64, len(ds.Samples))
	par.ForEach(len(ds.Samples), func(_, i int) {
		if predict(i, ds.Samples[i].X) == ds.Samples[i].Label {
			correct[i] = 1
		}
	})
	var sum int64
	for _, c := range correct {
		sum += c
	}
	return float64(sum) / float64(len(ds.Samples))
}

// Convs returns every QConv in execution order (body before shortcut for
// residual blocks), for statistics and trace generation.
func (q *QNetwork) Convs() []*QConv {
	var out []*QConv
	for _, b := range q.Blocks {
		for _, op := range b.Ops() {
			if c, ok := op.(*QConv); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// NoiseModel injects the e_ms rounding noise of the Athena conversion
// pipeline into the plaintext quantized execution, reproducing ciphertext
// inference statistics at full dataset scale without paying the full
// cryptographic cost (the injection point and distribution are validated
// against the real pipeline in the core package's tests).
type NoiseModel struct {
	Sigma float64 // std of e_ms in accumulator units
	rng   *rand.Rand
}

// NewNoiseModel creates a deterministic noise source.
func NewNoiseModel(sigma float64, seed uint64) *NoiseModel {
	return &NoiseModel{Sigma: sigma, rng: rand.New(rand.NewPCG(seed, 0xe5))}
}

// Sample draws one noise value.
func (nm *NoiseModel) Sample() int64 {
	if nm.Sigma == 0 {
		return 0
	}
	return int64(math.Round(nm.rng.NormFloat64() * nm.Sigma))
}
