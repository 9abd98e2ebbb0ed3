package qnn

import (
	"math"
	"math/rand/v2"

	"athena/internal/par"
)

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	LR        float64
	BatchSize int
	Seed      uint64
	Momentum  float64
}

// DefaultTrainConfig returns settings adequate for the small synthetic
// tasks.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 4, LR: 0.05, BatchSize: 16, Seed: 7, Momentum: 0.9}
}

// softmaxGrad computes the softmax cross-entropy loss gradient in place
// and returns the loss.
func softmaxGrad(logits *Tensor, label int) (*Tensor, float64) {
	maxv := math.Inf(-1)
	for _, v := range logits.Data {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	probs := make([]float64, logits.Len())
	for i, v := range logits.Data {
		probs[i] = math.Exp(v - maxv)
		sum += probs[i]
	}
	grad := NewVector(logits.Len())
	for i := range probs {
		probs[i] /= sum
		grad.Data[i] = probs[i]
	}
	grad.Data[label] -= 1
	return grad, -math.Log(math.Max(probs[label], 1e-12))
}

// Train runs SGD with momentum on a pure-Seq network (MNIST-CNN, LeNet).
// It returns the final-epoch mean loss.
func Train(net *Network, ds *Dataset, cfg TrainConfig) float64 {
	seq, ok := net.Blocks[0].(Seq)
	if len(net.Blocks) != 1 || !ok {
		panic("qnn: Train supports single-Seq networks only; use TrainReadout for ResNets")
	}
	params := net.Params()
	vel := make([][]float64, len(params))
	for i, p := range params {
		vel[i] = make([]float64, len(p.W))
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7a))
	order := make([]int, len(ds.Samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for bi := 0; bi < len(order); bi += cfg.BatchSize {
			end := bi + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for _, p := range params {
				for j := range p.G {
					p.G[j] = 0
				}
			}
			for _, idx := range order[bi:end] {
				s := ds.Samples[idx]
				logits := seq.Forward(s.X, true)
				grad, loss := softmaxGrad(logits, s.Label)
				total += loss
				seq.Backward(grad)
			}
			scale := cfg.LR / float64(end-bi)
			for i, p := range params {
				for j := range p.W {
					vel[i][j] = cfg.Momentum*vel[i][j] - scale*p.G[j]
					p.W[j] += vel[i][j]
				}
			}
		}
		lastLoss = total / float64(len(order))
	}
	return lastLoss
}

// TrainReadout trains only the final Dense layer of a network on frozen
// features (reservoir-style). This is how the deep ResNets obtain a
// usable classifier without full backprop training (see DESIGN.md for
// the substitution rationale). The features are the forward of the
// network minus that Dense; they are fitted by fitSoftmax from the
// layer's own weights, and it returns the last epoch's mean loss.
func TrainReadout(net *Network, ds *Dataset, cfg TrainConfig) float64 {
	lastBlock, ok := net.Blocks[len(net.Blocks)-1].(Seq)
	if !ok || len(lastBlock) == 0 {
		panic("qnn: TrainReadout needs a trailing Seq block")
	}
	dense, ok := lastBlock[len(lastBlock)-1].(*Dense)
	if !ok {
		panic("qnn: TrainReadout needs a trailing Dense layer")
	}
	trunk := *net
	trunk.Blocks = append(net.Blocks[:len(net.Blocks)-1:len(net.Blocks)-1], lastBlock[:len(lastBlock)-1])
	feats := make([][]float64, len(ds.Samples))
	par.ForEach(len(ds.Samples), func(_, i int) {
		feats[i] = trunk.Forward(ds.Samples[i].X, nil).Data
	})
	// The decay keeps the weight spread quantization-friendly.
	return fitSoftmax(ds, feats, dense.Weight.W, dense.Bias.W, cfg.Epochs, cfg.LR, 0.1, 1e-3, rand.New(rand.NewPCG(cfg.Seed, 0x8b)))
}

// fitSoftmax fits the softmax classifier b + w·x (w row-major, one row
// per class, starting from the values passed in) to the labels of ds,
// whose samples' features feats holds, and returns the last epoch's mean
// loss. Each feature dimension is standardized first: features share a
// large common mode and per-dimension anisotropy that would otherwise
// cripple SGD. A dimension's deviation is floored at floor times the
// mean deviation, since near-constant features would fold back into
// extreme weights that wreck per-tensor weight quantization. Every epoch
// visits the samples in an order shuffled by rng, one SGD step each with
// weight decay; at the end the standardization is folded back,
// w'_j = w_j/σ_j and b' = b − Σ_j w_j·μ_j/σ_j, so w and b act on the raw
// features.
func fitSoftmax(ds *Dataset, feats [][]float64, w, b []float64, epochs int, lr, floor, decay float64, rng *rand.Rand) float64 {
	in := len(w) / len(b)
	mu := make([]float64, in)
	sd := make([]float64, in)
	for _, f := range feats {
		for j, v := range f {
			mu[j] += v
			sd[j] += v * v
		}
	}
	nf := float64(len(feats))
	var sdSum float64
	for j := range mu {
		mu[j] /= nf
		sd[j] = math.Sqrt(math.Max(sd[j]/nf-mu[j]*mu[j], 0))
		sdSum += sd[j]
	}
	least := floor*sdSum/float64(in) + 1e-8
	for j := range sd {
		sd[j] = max(sd[j], least)
	}
	xs := make([][]float64, len(feats))
	for i, f := range feats {
		xs[i] = make([]float64, in)
		for j, v := range f {
			xs[i][j] = (v - mu[j]) / sd[j]
		}
	}

	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	logits := NewVector(len(b))
	var loss float64
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			x := xs[idx]
			for o := range b {
				acc := b[o]
				for j, v := range x {
					acc += w[o*in+j] * v
				}
				logits.Data[o] = acc
			}
			grad, l := softmaxGrad(logits, ds.Samples[idx].Label)
			total += l
			for o, g := range grad.Data {
				b[o] -= lr * g
				row := w[o*in : (o+1)*in]
				for j, v := range x {
					row[j] -= lr * (g*v + decay*row[j])
				}
			}
		}
		loss = total / float64(len(order))
	}

	for o := range b {
		row := w[o*in : (o+1)*in]
		for j := range row {
			b[o] -= row[j] * mu[j] / sd[j]
			row[j] /= sd[j]
		}
	}
	return loss
}

// Accuracy measures top-1 accuracy of the float network.
func Accuracy(net *Network, ds *Dataset) float64 {
	return accuracy(ds, func(_ int, x *Tensor) int { return net.Predict(x) })
}
