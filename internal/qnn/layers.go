package qnn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Param is a trainable parameter slab with its gradient accumulator.
type Param struct {
	W, G []float64
}

func newParam(n int) *Param { return &Param{W: make([]float64, n), G: make([]float64, n)} }

// Layer is one differentiable stage of a float network. Backward must be
// called after a Forward with train=true; it consumes the gradient with
// respect to the layer's output and returns the gradient with respect to
// its input, accumulating parameter gradients along the way.
type Layer interface {
	Forward(x *Tensor, train bool) *Tensor
	Backward(grad *Tensor) *Tensor
	Params() []*Param
	Name() string
}

// Conv2D is a standard convolution layer.
type Conv2D struct {
	Cout, Cin, K, Stride, Pad int
	Weight                    *Param // [cout][cin][k][k]
	Bias                      *Param // [cout]

	lastIn *Tensor
}

// NewConv2D creates a He-initialized convolution.
func NewConv2D(cout, cin, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{Cout: cout, Cin: cin, K: k, Stride: stride, Pad: pad,
		Weight: newParam(cout * cin * k * k), Bias: newParam(cout)}
	std := math.Sqrt(2.0 / float64(cin*k*k))
	for i := range c.Weight.W {
		c.Weight.W[i] = rng.NormFloat64() * std
	}
	return c
}

func (c *Conv2D) w(co, ci, i, j int) float64 {
	return c.Weight.W[((co*c.Cin+ci)*c.K+i)*c.K+j]
}

func (c *Conv2D) outDims(x *Tensor) (int, int) {
	return (x.H+2*c.Pad-c.K)/c.Stride + 1, (x.W+2*c.Pad-c.K)/c.Stride + 1
}

// Forward computes the convolution.
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	if x.C != c.Cin {
		panic(fmt.Sprintf("qnn: conv expects %d channels, got %s", c.Cin, x.shapeString()))
	}
	oh, ow := c.outDims(x)
	out := NewTensor(c.Cout, oh, ow)
	for co := 0; co < c.Cout; co++ {
		b := c.Bias.W[co]
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				acc := b
				for ci := 0; ci < c.Cin; ci++ {
					for i := 0; i < c.K; i++ {
						h := y*c.Stride + i - c.Pad
						if h < 0 || h >= x.H {
							continue
						}
						for j := 0; j < c.K; j++ {
							w := xx*c.Stride + j - c.Pad
							if w < 0 || w >= x.W {
								continue
							}
							acc += x.At(ci, h, w) * c.w(co, ci, i, j)
						}
					}
				}
				out.Set(co, y, xx, acc)
			}
		}
	}
	if train {
		c.lastIn = x
	}
	return out
}

// Backward propagates gradients.
func (c *Conv2D) Backward(grad *Tensor) *Tensor {
	x := c.lastIn
	gin := NewTensor(x.C, x.H, x.W)
	oh, ow := grad.H, grad.W
	for co := 0; co < c.Cout; co++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				g := grad.At(co, y, xx)
				if g == 0 {
					continue
				}
				c.Bias.G[co] += g
				for ci := 0; ci < c.Cin; ci++ {
					for i := 0; i < c.K; i++ {
						h := y*c.Stride + i - c.Pad
						if h < 0 || h >= x.H {
							continue
						}
						for j := 0; j < c.K; j++ {
							w := xx*c.Stride + j - c.Pad
							if w < 0 || w >= x.W {
								continue
							}
							widx := ((co*c.Cin+ci)*c.K+i)*c.K + j
							c.Weight.G[widx] += g * x.At(ci, h, w)
							gin.Data[(ci*x.H+h)*x.W+w] += g * c.Weight.W[widx]
						}
					}
				}
			}
		}
	}
	return gin
}

// Params returns the trainable slabs.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Name identifies the layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%d_%d->%d", c.K, c.K, c.Cin, c.Cout) }

// Dense is a fully-connected layer over the flattened input.
type Dense struct {
	In, Out int
	Weight  *Param // [out][in]
	Bias    *Param

	lastIn *Tensor
}

// NewDense creates a He-initialized dense layer.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Weight: newParam(in * out), Bias: newParam(out)}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = rng.NormFloat64() * std
	}
	return d
}

// Forward computes W·x + b on the flattened input.
func (d *Dense) Forward(x *Tensor, train bool) *Tensor {
	if x.Len() != d.In {
		panic(fmt.Sprintf("qnn: dense expects %d inputs, got %d", d.In, x.Len()))
	}
	out := NewVector(d.Out)
	for o := 0; o < d.Out; o++ {
		acc := d.Bias.W[o]
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			acc += row[i] * v
		}
		out.Data[o] = acc
	}
	if train {
		d.lastIn = x
	}
	return out
}

// Backward propagates gradients.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	x := d.lastIn
	gin := &Tensor{C: x.C, H: x.H, W: x.W, Data: make([]float64, x.Len())}
	for o := 0; o < d.Out; o++ {
		g := grad.Data[o]
		if g == 0 {
			continue
		}
		d.Bias.G[o] += g
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		growRow := d.Weight.G[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			growRow[i] += g * v
			gin.Data[i] += g * row[i]
		}
	}
	return gin
}

// Params returns the trainable slabs.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name identifies the layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense_%d->%d", d.In, d.Out) }

// ReLU is the rectifier.
type ReLU struct{ mask []bool }

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	out := x.Clone()
	if train {
		r.mask = make([]bool, x.Len())
	}
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else if train {
			r.mask[i] = true
		}
	}
	return out
}

// Backward gates the gradient.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	gin := grad.Clone()
	for i := range gin.Data {
		if !r.mask[i] {
			gin.Data[i] = 0
		}
	}
	return gin
}

// Params returns nil (no parameters).
func (r *ReLU) Params() []*Param { return nil }

// Name identifies the layer.
func (r *ReLU) Name() string { return "relu" }

// MaxPool is a K×K max pooling with stride K.
type MaxPool struct {
	K      int
	argIdx []int
	inDims [3]int
}

// Forward takes the block maximum.
func (p *MaxPool) Forward(x *Tensor, train bool) *Tensor {
	oh, ow := x.H/p.K, x.W/p.K
	out := NewTensor(x.C, oh, ow)
	if train {
		p.argIdx = make([]int, x.C*oh*ow)
		p.inDims = [3]int{x.C, x.H, x.W}
	}
	for c := 0; c < x.C; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := math.Inf(-1)
				bestIdx := 0
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						idx := (c*x.H+y*p.K+i)*x.W + xx*p.K + j
						if v := x.Data[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				out.Set(c, y, xx, best)
				if train {
					p.argIdx[(c*oh+y)*ow+xx] = bestIdx
				}
			}
		}
	}
	return out
}

// Backward routes gradient to the argmax positions.
func (p *MaxPool) Backward(grad *Tensor) *Tensor {
	gin := NewTensor(p.inDims[0], p.inDims[1], p.inDims[2])
	for i, g := range grad.Data {
		gin.Data[p.argIdx[i]] += g
	}
	return gin
}

// Params returns nil.
func (p *MaxPool) Params() []*Param { return nil }

// Name identifies the layer.
func (p *MaxPool) Name() string { return fmt.Sprintf("maxpool%d", p.K) }

// AvgPool is a K×K average pooling with stride K.
type AvgPool struct {
	K      int
	inDims [3]int
}

// Forward takes the block mean.
func (p *AvgPool) Forward(x *Tensor, train bool) *Tensor {
	oh, ow := x.H/p.K, x.W/p.K
	out := NewTensor(x.C, oh, ow)
	inv := 1.0 / float64(p.K*p.K)
	if train {
		p.inDims = [3]int{x.C, x.H, x.W}
	}
	for c := 0; c < x.C; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				acc := 0.0
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						acc += x.At(c, y*p.K+i, xx*p.K+j)
					}
				}
				out.Set(c, y, xx, acc*inv)
			}
		}
	}
	return out
}

// Backward spreads the gradient uniformly.
func (p *AvgPool) Backward(grad *Tensor) *Tensor {
	gin := NewTensor(p.inDims[0], p.inDims[1], p.inDims[2])
	inv := 1.0 / float64(p.K*p.K)
	for c := 0; c < grad.C; c++ {
		for y := 0; y < grad.H; y++ {
			for xx := 0; xx < grad.W; xx++ {
				g := grad.At(c, y, xx) * inv
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						gin.Data[(c*gin.H+y*p.K+i)*gin.W+xx*p.K+j] += g
					}
				}
			}
		}
	}
	return gin
}

// Params returns nil.
func (p *AvgPool) Params() []*Param { return nil }

// Name identifies the layer.
func (p *AvgPool) Name() string { return fmt.Sprintf("avgpool%d", p.K) }

// Sigmoid is the logistic activation.
type Sigmoid struct{ lastOut *Tensor }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward applies 1/(1+e^-x).
func (s *Sigmoid) Forward(x *Tensor, train bool) *Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = sigmoid(v)
	}
	if train {
		s.lastOut = out
	}
	return out
}

// Backward uses y·(1−y).
func (s *Sigmoid) Backward(grad *Tensor) *Tensor {
	gin := grad.Clone()
	for i := range gin.Data {
		y := s.lastOut.Data[i]
		gin.Data[i] *= y * (1 - y)
	}
	return gin
}

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// Name identifies the layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// GELU is the Gaussian-error linear unit (tanh approximation).
type GELU struct{ lastIn *Tensor }

func gelu(v float64) float64 {
	return 0.5 * v * (1 + math.Tanh(0.7978845608*(v+0.044715*v*v*v)))
}

// Forward applies GELU.
func (g *GELU) Forward(x *Tensor, train bool) *Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = gelu(v)
	}
	if train {
		g.lastIn = x
	}
	return out
}

// Backward differentiates numerically-stably via the tanh form.
func (g *GELU) Backward(grad *Tensor) *Tensor {
	gin := grad.Clone()
	const c = 0.7978845608
	for i := range gin.Data {
		v := g.lastIn.Data[i]
		u := c * (v + 0.044715*v*v*v)
		th := math.Tanh(u)
		du := c * (1 + 3*0.044715*v*v)
		gin.Data[i] *= 0.5*(1+th) + 0.5*v*(1-th*th)*du
	}
	return gin
}

// Params returns nil.
func (g *GELU) Params() []*Param { return nil }

// Name identifies the layer.
func (g *GELU) Name() string { return "gelu" }
