package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

// Parameter sets of the workloads. t12289Params are the parameters of
// examples/mnistcnn.
func t12289Params() core.Params {
	return core.Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289,
		LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3}
}

// tinyNet is the 6×6 conv→conv→dense network behind the tracked
// infer_e2e row: same shapes and weights (so the same operation counts),
// but with multipliers 1/2, 1/2, 1/8 in place of 1/16, 1/16, 1/8. With
// the original multipliers every logit is 0 for every input, which
// would make the oracle check nothing.
func tinyNet() *qnn.QNetwork {
	rng := rand.New(rand.NewPCG(99, 99))
	mk := func(shape coeffenc.ConvShape, act qnn.Activation, mult float64) *qnn.QConv {
		w := make([][][][]int64, shape.Cout)
		for co := range w {
			w[co] = make([][][]int64, shape.Cin)
			for ci := range w[co] {
				w[co][ci] = make([][]int64, shape.K)
				for i := range w[co][ci] {
					w[co][ci][i] = make([]int64, shape.K)
					for j := range w[co][ci][i] {
						w[co][ci][i][j] = int64(rng.IntN(3)) - 1
					}
				}
			}
		}
		return &qnn.QConv{Shape: shape, Weights: w, Bias: make([]int64, shape.Cout),
			Act: act, Multiplier: mult, ActBits: 4, MaxAcc: 120}
	}
	return &qnn.QNetwork{
		Name: "bench-tiny", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/2),
			mk(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/2),
			mk(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8),
		}},
	}
}

// downsample2 average-pools a 28×28 digit image to 14×14.
func downsample2(x *qnn.Tensor) *qnn.Tensor {
	out := qnn.NewTensor(1, 14, 14)
	for y := 0; y < 14; y++ {
		for xx := 0; xx < 14; xx++ {
			s := x.At(0, 2*y, 2*xx) + x.At(0, 2*y, 2*xx+1) + x.At(0, 2*y+1, 2*xx) + x.At(0, 2*y+1, 2*xx+1)
			out.Set(0, y, xx, s/4)
		}
	}
	return out
}

func downsampleSet(ds *qnn.Dataset) *qnn.Dataset {
	out := &qnn.Dataset{Name: ds.Name + "-14", Classes: ds.Classes}
	for _, s := range ds.Samples {
		out.Samples = append(out.Samples, qnn.Sample{X: downsample2(s.X), Label: s.Label})
	}
	return out
}

// digitNet trains and quantizes DigitNet14 to w5a6 exactly as
// examples/mnistcnn does. It is preparation, not set-up: the same model
// comes out for every seed.
func digitNet() (*qnn.QNetwork, error) {
	train := downsampleSet(qnn.SynthDigits(900, 11))
	net := qnn.NewDigitNet14(5)
	cfg := qnn.DefaultTrainConfig()
	cfg.Epochs = 10
	qnn.Train(net, train, cfg)
	return qnn.Quantize(net, train, qnn.QuantConfig{WBits: 5, ABits: 6, CalibSamples: 32, AccMargin: 1.3, AccCap: 5500})
}

// inputPool is how many distinct inputs a workload cycles through.
const inputPool = 32

// opKind says what one operation of a workload does.
type opKind uint8

const (
	opInfer  opKind = iota // one inference (local or served)
	opAttach               // routed_churn: returning client on session Session
	opUpload               // routed_churn: a new client uploads fresh keys
)

// opSpec is one entry of a workload's operation sequence.
type opSpec struct {
	Kind    opKind
	Input   int    // index into plan.Inputs
	Session int    // opAttach: which pre-uploaded session
	KeySeed uint64 // opUpload: key seed of the fresh engine
}

// plan is everything a workload derives from its seed before set-up:
// the model, the inputs with their oracle logits, and the operation
// sequence (cycled when a run outlasts it). The program under test sees
// only these generated inputs, never the seed.
type plan struct {
	Net    *qnn.QNetwork
	Params core.Params
	// Tol is the workload's stated tolerance of the oracle: the noise
	// envelope all but a sliver of operations stay inside (at most
	// outsideAllowed of them may leave it). Hard is the limit beyond
	// which a single operation counts as failed. Two tiers because the
	// pipeline's rounding noise has a tail: at thousands of operations
	// per run an occasional logit lands one step outside any envelope
	// tight enough to notice noise growth.
	Tol, Hard int64
	Inputs    []*qnn.IntTensor
	Want      [][]int64
	Ops       []opSpec
	KeySeeds  []uint64 // key seeds of the pre-uploaded sessions
}

// routedSessions and uploadEvery shape routed_churn: twelve returning
// sessions, and every sixth operation a fresh upload.
const (
	routedSessions = 12
	uploadEvery    = 6
	opSequenceLen  = 4096
)

func uniformInput(rng *rand.Rand, c, h, w int) *qnn.IntTensor {
	x := qnn.NewIntTensor(c, h, w)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	return x
}

// makePlan builds the plan of workload name from seed.
func makePlan(name string, seed uint64) (*plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0xa7e7a))
	p := &plan{}
	switch name {
	case "single_t257":
		p.Net, p.Params, p.Tol, p.Hard = tinyNet(), core.TestParams(), 3, 6
		for i := 0; i < inputPool; i++ {
			p.Inputs = append(p.Inputs, uniformInput(rng, 1, 6, 6))
		}
	case "single_t12289":
		net, err := digitNet()
		if err != nil {
			return nil, err
		}
		p.Net, p.Params, p.Tol, p.Hard = net, t12289Params(), 1, 2
		for _, s := range downsampleSet(qnn.SynthDigits(inputPool, seed)).Samples {
			p.Inputs = append(p.Inputs, net.QuantizeInput(s.X))
		}
	case "serve_batch16", "routed_churn":
		p.Net, p.Params, p.Tol, p.Hard = serve.DemoNet(), core.TestParams(), 3, 6
		for i := 0; i < inputPool; i++ {
			p.Inputs = append(p.Inputs, uniformInput(rng, 1, 4, 4))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, x := range p.Inputs {
		p.Want = append(p.Want, p.Net.ForwardInt(x).Data)
	}
	p.Ops = make([]opSpec, opSequenceLen)
	for i := range p.Ops {
		p.Ops[i] = opSpec{Kind: opInfer, Input: rng.IntN(len(p.Inputs))}
	}
	if name == "routed_churn" {
		// Key seeds are drawn from the run seed so that every run uploads
		// key material no earlier run (sharing a data directory or not)
		// has produced.
		for i := 0; i < routedSessions; i++ {
			p.KeySeeds = append(p.KeySeeds, rng.Uint64())
		}
		// The returning sessions come back in a fixed rotation (a seeded
		// permutation): between two visits of a session ten others pass,
		// far more than the nodes keep resident, so every attach finds its
		// session evicted. A random order would make the share of cold
		// loads, and with it every per-operation metric, vary run to run.
		rotation, turn := rng.Perm(routedSessions), 0
		for i := range p.Ops {
			if i%uploadEvery == uploadEvery-1 {
				p.Ops[i].Kind, p.Ops[i].KeySeed = opUpload, rng.Uint64()
			} else {
				p.Ops[i].Kind, p.Ops[i].Session = opAttach, rotation[turn%routedSessions]
				turn++
			}
		}
	}
	return p, nil
}

// digest fingerprints a plan's inputs and operation sequence: equal
// seeds must give equal digests, different seeds different ones.
func (p *plan) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, x := range p.Inputs {
		for _, v := range x.Data {
			put(uint64(v))
		}
	}
	for _, s := range p.KeySeeds {
		put(s)
	}
	for _, op := range p.Ops {
		put(uint64(op.Kind))
		put(uint64(op.Input))
		put(uint64(op.Session))
		put(op.KeySeed)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// outsideAllowed is the share of a run's operations that may land
// outside the stated tolerance (but inside the hard limit).
const outsideAllowed = 0.03

// checkLogits compares decrypted logits with the plaintext-quantized
// oracle and returns the largest deviation; beyond the hard limit tol
// the operation has failed.
func checkLogits(got, want []int64, tol int64) (maxErr int64, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("got %d logits, want %d", len(got), len(want))
	}
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		maxErr = max(maxErr, d)
	}
	if maxErr > tol {
		return maxErr, fmt.Errorf("logits %v differ from oracle %v by %d (hard limit %d)", got, want, maxErr, tol)
	}
	return maxErr, nil
}
