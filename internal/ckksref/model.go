package ckksref

import (
	"math"

	"athena/internal/qnn"
)

// ModelBitAccuracy reproduces the CNN curve of Fig. 1: a trained network
// is evaluated with every ReLU replaced by its Δ-bit fixed-point series
// expansion, and the deviation of the output class probabilities from
// the exact network is measured in bits (-log2 of the mean absolute
// probability error). The paper's observation: even at Δ = 30–35 the
// approximated network is degraded and unstable relative to exact ReLU.
func ModelBitAccuracy(net *qnn.Network, ds *qnn.Dataset, samples, order, delta int) float64 {
	if samples > len(ds.Samples) {
		samples = len(ds.Samples)
	}
	coeffs := Coefficients(ReLU, Chebyshev, order)
	// Activations are normalized into the expansion's [-1, 1] domain per
	// tensor (the standard range-scaling CKKS pipelines apply before a
	// polynomial activation).
	series := func(t *qnn.Tensor) *qnn.Tensor {
		out := t.Clone()
		scale := t.AbsMax()
		if scale == 0 {
			scale = 1
		}
		for i, v := range out.Data {
			out.Data[i] = EvalFixed(coeffs, v/scale, delta) * scale
		}
		return out
	}

	var errSum float64
	var count int
	for i := 0; i < samples; i++ {
		x := ds.Samples[i].X
		exact := softmaxF(net.Forward(x, nil).Data)
		approx := softmaxF(net.Forward(x, series).Data)
		for j := range exact {
			errSum += math.Abs(exact[j] - approx[j])
			count++
		}
	}
	mean := errSum / float64(count)
	if mean <= 0 {
		return 40
	}
	b := -math.Log2(mean)
	if b > 40 {
		b = 40
	}
	if b < 0 {
		b = 0
	}
	return b
}

func softmaxF(logits []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
