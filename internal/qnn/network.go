package qnn

// Block is a structural unit of a network: a Seq or a Residual.
type Block interface {
	Layers() []Layer
}

// Seq applies layers in order.
type Seq []Layer

// Forward runs the sequence.
func (s Seq) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range s {
		x = l.Forward(x, train)
	}
	return x
}

// Layers returns the contained layers.
func (s Seq) Layers() []Layer { return s }

// Backward runs the sequence's backward pass in reverse (valid only for
// pure Seq networks; residual blocks are forward-only in this
// reproduction, as only the small MNIST/LeNet models are trained by
// backprop).
func (s Seq) Backward(grad *Tensor) *Tensor {
	for i := len(s) - 1; i >= 0; i-- {
		grad = s[i].Backward(grad)
	}
	return grad
}

// Residual is a pre-activation-free basic ResNet block:
// out = ReLU(Body(x) + Shortcut(x)); an empty Shortcut is the identity.
type Residual struct {
	Body     Seq
	Shortcut Seq
}

// Layers returns all contained layers (body then shortcut).
func (r *Residual) Layers() []Layer {
	return append(append([]Layer{}, r.Body...), r.Shortcut...)
}

// Network is an ordered list of blocks.
type Network struct {
	Name   string
	InC    int
	InH    int
	InW    int
	Blocks []Block
}

// Forward runs the network for inference. relu is the rectifier applied
// at every ReLU layer and residual join; nil applies ReLU itself, and
// ckksref passes a series expansion in its place.
func (n *Network) Forward(x *Tensor, relu func(*Tensor) *Tensor) *Tensor {
	if relu == nil {
		relu = rectify
	}
	seq := func(layers []Layer, x *Tensor) *Tensor {
		for _, l := range layers {
			if _, ok := l.(*ReLU); ok {
				x = relu(x)
			} else {
				x = l.Forward(x, false)
			}
		}
		return x
	}
	for _, b := range n.Blocks {
		r, ok := b.(*Residual)
		if !ok {
			x = seq(b.Layers(), x)
			continue
		}
		x = relu(r.sum(seq(r.Body, x), seq(r.Shortcut, x)))
	}
	return x
}

// rectify is the exact ReLU of a tensor.
func rectify(t *Tensor) *Tensor { return (&ReLU{}).Forward(t, false) }

// sum adds a residual block's branch outputs: the join before its ReLU.
func (r *Residual) sum(body, short *Tensor) *Tensor {
	if !body.SameShape(short) {
		panic("qnn: residual branch shapes differ: " + body.shapeString() + " vs " + short.shapeString())
	}
	out := body.Clone()
	for i, v := range short.Data {
		out.Data[i] += v
	}
	return out
}

// Params collects every trainable parameter.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, b := range n.Blocks {
		for _, l := range b.Layers() {
			out = append(out, l.Params()...)
		}
	}
	return out
}

// Predict returns the argmax class for the input.
func (n *Network) Predict(x *Tensor) int {
	return Argmax(n.Forward(x, nil).Data)
}
