// Package qnn provides the quantized-CNN substrate of the Athena
// reproduction: small float networks with a built-in SGD trainer,
// procedurally generated datasets standing in for MNIST and CIFAR-10,
// a post-training quantizer covering w4a4 through w8a8, and the
// integer-exact quantized network representation (QNetwork) whose
// arithmetic the FHE engine reproduces bit for bit.
package qnn

import "fmt"

// Tensor is a dense C×H×W float tensor. Vectors use C=len, H=W=1.
type Tensor struct {
	C, H, W int
	Data    []float64
}

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor {
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// NewVector allocates a zero 1-D tensor.
func NewVector(n int) *Tensor { return NewTensor(n, 1, 1) }

// At returns element (c, h, w).
func (t *Tensor) At(c, h, w int) float64 { return t.Data[(c*t.H+h)*t.W+w] }

// Set writes element (c, h, w).
func (t *Tensor) Set(c, h, w int, v float64) { t.Data[(c*t.H+h)*t.W+w] = v }

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{C: t.C, H: t.H, W: t.W, Data: append([]float64(nil), t.Data...)}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.C == o.C && t.H == o.H && t.W == o.W
}

func (t *Tensor) shapeString() string { return fmt.Sprintf("%dx%dx%d", t.C, t.H, t.W) }

// AbsMax returns max |x| over the tensor.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// IntTensor is the integer counterpart used on the quantized path.
type IntTensor struct {
	C, H, W int
	Data    []int64
}

// NewIntTensor allocates a zero integer tensor.
func NewIntTensor(c, h, w int) *IntTensor {
	return &IntTensor{C: c, H: h, W: w, Data: make([]int64, c*h*w)}
}

// At returns element (c, h, w).
func (t *IntTensor) At(c, h, w int) int64 { return t.Data[(c*t.H+h)*t.W+w] }

// Set writes element (c, h, w).
func (t *IntTensor) Set(c, h, w int, v int64) { t.Data[(c*t.H+h)*t.W+w] = v }

// Len returns the element count.
func (t *IntTensor) Len() int { return len(t.Data) }

// Clone deep-copies the tensor.
func (t *IntTensor) Clone() *IntTensor {
	return &IntTensor{C: t.C, H: t.H, W: t.W, Data: append([]int64(nil), t.Data...)}
}

// To3D converts to the nested representation package coeffenc consumes.
func (t *IntTensor) To3D() [][][]int64 {
	out := make([][][]int64, t.C)
	for c := 0; c < t.C; c++ {
		out[c] = make([][]int64, t.H)
		for h := 0; h < t.H; h++ {
			out[c][h] = make([]int64, t.W)
			for w := 0; w < t.W; w++ {
				out[c][h][w] = t.At(c, h, w)
			}
		}
	}
	return out
}

// Argmax returns the index of the maximum element (ties to the first).
func Argmax[T int64 | float64](v []T) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
