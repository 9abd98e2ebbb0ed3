package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

var (
	engOnce sync.Once
	eng     *Engine
	engErr  error
)

// testEngine builds one shared engine at TestParams (key generation and
// S2C compilation are the expensive parts; the engine is model-agnostic).
func testEngine(t *testing.T) *Engine {
	t.Helper()
	engOnce.Do(func() {
		eng, engErr = NewEngine(TestParams())
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	eng.Stats = OpStats{}
	return eng
}

// tinyConv builds a QConv with ternary weights and small dynamic range so
// accumulators stay inside t=257.
func tinyConv(shape coeffenc.ConvShape, act qnn.Activation, mult float64, seed uint64) *qnn.QConv {
	rng := rand.New(rand.NewPCG(seed, 0x7c))
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
	bias := make([]int64, shape.Cout)
	for i := range bias {
		bias[i] = int64(rng.IntN(7)) - 3
	}
	return &qnn.QConv{
		Shape:      shape,
		Weights:    w,
		Bias:       bias,
		Act:        act,
		Multiplier: mult,
		ActBits:    4, // activations in [-7, 7] / [0, 7]
		IsDense:    shape.H == 1 && shape.K == 1,
		MaxAcc:     120,
	}
}

func randInput(c, h, w int, bound int64, seed uint64) *qnn.IntTensor {
	rng := rand.New(rand.NewPCG(seed, 0x1f))
	x := qnn.NewIntTensor(c, h, w)
	for i := range x.Data {
		x.Data[i] = int64(rng.Uint64N(uint64(bound + 1)))
	}
	return x
}

// compareLogits checks the FHE output against the exact plaintext
// reference, allowing deviations from the e_ms rounding noise.
func compareLogits(t *testing.T, got, want []int64, tol int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("logit count %d want %d", len(got), len(want))
	}
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("logit %d: encrypted %d vs plaintext %d (|diff| > %d)\nall got:  %v\nall want: %v",
				i, got[i], want[i], tol, got, want)
		}
	}
}

func TestEncryptedConvChain(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "tiny-chain", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 1),
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 2),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 3),
		}},
	}
	x := randInput(1, 6, 6, 7, 10)
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 2)
	if e.Stats.FBSCalls < 2 || e.Stats.Packs < 2 || e.Stats.S2CCalls < 2 {
		t.Fatalf("pipeline steps missing: %+v", e.Stats)
	}
	t.Logf("conv-chain stats: %+v", e.Stats)
}

func TestEncryptedAvgPool(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "tiny-avg", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 4),
			&qnn.QAvgPool{K: 2},
			tinyConv(coeffenc.FCShape(2*3*3, 4), qnn.ActNone, 1.0/8, 5),
		}},
	}
	x := randInput(1, 6, 6, 7, 11)
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 2)
	// Each of the 2·3·3 windows is summed from its first value: K² − 1
	// additions, not K² from a zero.
	if windows := 2 * 3 * 3; e.Stats.LWEAdds != windows*(2*2-1) {
		t.Fatalf("%d LWE additions, want %d windows × (K² − 1)", e.Stats.LWEAdds, windows)
	}
}

// TestEncryptedMaxPool runs a 6×6 conv → K×K max pool → dense net at
// K = 2 and K = 3. The pool issues one LUT round to materialize its 72
// inputs in the scaled domain, then the tree: each level pairs two
// candidates of every window and carries an odd one, so a level of m
// candidates batches windows·⌊m/2⌋ ReLUs and leaves ⌈m/2⌉, for
// ⌈log₂ K²⌉ levels, and each pair costs two LWE additions, a − b before
// its ReLU and b + ReLU(a − b) after (108 at K = 2: 72 + 36). The dense
// layer's input rounds fuse the pending divide.
func TestEncryptedMaxPool(t *testing.T) {
	e := testEngine(t)
	for _, k := range []int{2, 3} {
		oh := 6 / k
		dense := tinyConv(coeffenc.FCShape(2*oh*oh, 4), qnn.ActNone, 1.0/8, 7)
		net := &qnn.QNetwork{
			Name: fmt.Sprintf("tiny-max%d", k), InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
			Blocks: []qnn.QBlock{qnn.QSeq{
				tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 6),
				&qnn.QMaxPool{K: k},
				dense,
			}},
		}
		x := randInput(1, 6, 6, 7, 12)
		want := net.ForwardInt(x).Data
		e.Stats = OpStats{}
		got, err := e.Infer(net, x)
		if err != nil {
			t.Fatal(err)
		}
		compareLogits(t, got, want, 3)

		n := e.Ctx.N
		rounds := func(vals int) int { return (vals + n - 1) / n }
		windows, levels, tree, pairs := 2*oh*oh, 0, 0, 0
		for m := k * k; m > 1; m = (m + 1) / 2 {
			tree += rounds(windows * (m / 2))
			pairs += windows * (m / 2)
			levels++
		}
		if e.Stats.LWEAdds != 2*pairs {
			t.Fatalf("K = %d: %d LWE additions, want 2 × %d pairs", k, e.Stats.LWEAdds, pairs)
		}
		if levels != bits.Len(uint(k*k-1)) {
			t.Fatalf("K = %d: %d tree levels, want ⌈log₂ %d⌉", k, levels, k*k)
		}
		plan, err := coeffenc.NewPlan(dense.Shape, n, coeffenc.AthenaOrder)
		if err != nil {
			t.Fatal(err)
		}
		g := n / plan.InputLen()
		wantCalls := rounds(2*6*6) + tree + (plan.InBatches+g-1)/g
		if e.Stats.FBSCalls != wantCalls {
			t.Fatalf("K = %d: %d FBS calls, want %d (%d in the tree)", k, e.Stats.FBSCalls, wantCalls, tree)
		}
		t.Logf("K = %d: logits %v (plaintext %v), stats %+v", k, got, want, e.Stats)
	}
}

func resNet() *qnn.QNetwork {
	return &qnn.QNetwork{
		Name: "tiny-res", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{
			qnn.QSeq{
				tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 8),
			},
			&qnn.QResidual{
				Body: qnn.QSeq{
					tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 9),
					tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActNone, 1.0/16, 10),
				},
				ActBits: 4,
			},
			qnn.QSeq{
				tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 11),
			},
		},
	}
}

func TestEncryptedResidualBlock(t *testing.T) {
	e := testEngine(t)
	net := resNet()
	x := randInput(1, 6, 6, 7, 13)
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 3)
	if e.Stats.LWEAdds == 0 {
		t.Fatal("residual join did not use LWE additions")
	}
	// Each image's join compiles its own LUT, so the dense layer after
	// the block has nothing to share across a batch and must fuse.
	xs := []*qnn.IntTensor{x, randInput(1, 6, 6, 7, 12)}
	batch, err := e.InferBatch(net, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		compareLogits(t, batch[i], net.ForwardInt(xs[i]).Data, 3)
	}
}

func TestEncryptedProjectionShortcut(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "tiny-proj", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{
			qnn.QSeq{
				tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 14),
			},
			&qnn.QResidual{
				Body: qnn.QSeq{
					tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 4, K: 3, Stride: 2, Pad: 1}, qnn.ActReLU, 1.0/16, 15),
					tinyConv(coeffenc.ConvShape{H: 3, W: 3, Cin: 4, Cout: 4, K: 3, Stride: 1, Pad: 1}, qnn.ActNone, 1.0/16, 16),
				},
				Shortcut: qnn.QSeq{
					tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 4, K: 1, Stride: 2, Pad: 0}, qnn.ActNone, 1.0/8, 17),
				},
				ActBits: 4,
			},
			qnn.QSeq{
				tinyConv(coeffenc.FCShape(4*3*3, 4), qnn.ActNone, 1.0/8, 18),
			},
		},
	}
	x := randInput(1, 6, 6, 7, 19)
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 3)
}

func TestEngineRejectsOversizedAccumulator(t *testing.T) {
	e := testEngine(t)
	c := tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 20)
	c.MaxAcc = 5000 // exceeds t/2 = 128
	net := &qnn.QNetwork{
		Name: "bad", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			c,
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 21),
		}},
	}
	if _, err := e.Infer(net, randInput(1, 6, 6, 7, 22)); err == nil {
		t.Fatal("oversized accumulator bound accepted")
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "tiny", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActNone, 1.0/16, 23),
		}},
	}
	if _, err := e.Infer(net, randInput(2, 6, 6, 7, 24)); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, err := e.Infer(&qnn.QNetwork{}, randInput(1, 6, 6, 7, 25)); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestParamsDerivations(t *testing.T) {
	p := FullParams()
	if p.QMid() != 65537<<12 {
		t.Fatal("QMid wrong")
	}
	// Table 1's Athena row: 2^15 degree, 12 limbs -> 6 MB ciphertext
	// (paper reports 5.6 MB with 60-bit limbs stored packed).
	if b := p.CiphertextBytes(); b != 2*32768*12*8 {
		t.Fatalf("ciphertext bytes %d", b)
	}
	bp, err := p.BFVParameters()
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Qi) != 12 {
		t.Fatal("limb count wrong")
	}
}

// TestFlattenIntoDenseExact is the regression test for the conv→FC
// flatten: a deterministic edge-detector + position-selective dense
// readout must reproduce the plaintext values exactly (the final remap
// divides e_ms away). This catches any misrouting of labeled LWE values
// between feature-map and flattened coordinates.
func TestFlattenIntoDenseExact(t *testing.T) {
	e := testEngine(t)
	conv := &qnn.QConv{
		Shape: coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1},
		Weights: [][][][]int64{{{
			{0, -1, 0},
			{-1, 4, -1},
			{0, -1, 0},
		}}},
		Bias: []int64{0}, Act: qnn.ActReLU, Multiplier: 0.25, ActBits: 4, MaxAcc: 120,
	}
	dense := &qnn.QConv{
		Shape:   coeffenc.FCShape(36, 2),
		Weights: make([][][][]int64, 2),
		Bias:    []int64{0, 0}, Act: qnn.ActNone, Multiplier: 0.25, ActBits: 4,
		IsDense: true, MaxAcc: 120,
	}
	for o := 0; o < 2; o++ {
		dense.Weights[o] = make([][][]int64, 36)
		for i := 0; i < 36; i++ {
			w := int64(0)
			if (i/6 < 3) == (o == 0) {
				w = 1
			}
			dense.Weights[o][i] = [][]int64{{w}}
		}
	}
	net := &qnn.QNetwork{
		Name: "flatten", InC: 1, InH: 6, InW: 6, WBits: 3, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{conv, dense}},
	}
	x := qnn.NewIntTensor(1, 6, 6)
	x.Set(0, 1, 2, 7)
	x.Set(0, 1, 3, 7)
	want := net.ForwardInt(x).Data
	if want[0] == 0 || want[0] == want[1] {
		t.Fatalf("test vector degenerate: %v", want)
	}
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 1)
	if got[0] <= got[1] {
		t.Fatalf("top-half activation not detected: %v", got)
	}
}

func TestSoftmaxEncrypted(t *testing.T) {
	e := testEngine(t)
	cfg := e.DefaultSoftmaxConfig(4)
	logits := []int64{6, 2, -1, -5}
	got, err := e.SoftmaxEncrypted(logits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SoftmaxPlain(logits, cfg)
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		// At t=257 the conversion noise is large relative to the scaled
		// exponentials; the demo tolerance is correspondingly loose.
		if d > 0.25 {
			t.Fatalf("class %d: encrypted %.3f vs plaintext %.3f\ngot:  %v\nwant: %v",
				i, got[i], want[i], got, want)
		}
	}
	// The dominant class must survive encryption.
	if qnn.Argmax(got) != 0 {
		t.Fatalf("softmax argmax lost: %v", got)
	}
	// Input validation.
	if _, err := e.SoftmaxEncrypted([]int64{1, 2}, cfg); err == nil {
		t.Fatal("wrong class count accepted")
	}
	if _, err := e.SoftmaxEncrypted([]int64{100, 0, 0, 0}, cfg); err == nil {
		t.Fatal("out-of-range logit accepted")
	}
}

// TestEncryptedSigmoidNetwork runs a sigmoid-activated network under
// encryption: the FBS LUT carries the exact sigmoid table ("Athena can
// accurately support any type of activation function").
func TestEncryptedSigmoidNetwork(t *testing.T) {
	e := testEngine(t)
	conv := tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActSigmoid, 0, 30)
	// Scales for the sigmoid dequant/requant path: accumulators up to
	// ~±60 dequantize to ±3, sigmoid output in (0,1) requantizes to
	// [0, 7] at OutScale 1/7.
	conv.InScale = 0.05
	conv.WScale = 1
	conv.OutScale = 1.0 / 7
	net := &qnn.QNetwork{
		Name: "sigmoid-net", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			conv,
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 31),
		}},
	}
	x := randInput(1, 6, 6, 7, 32)
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, want, 2)
	// Sanity: the sigmoid remap is really non-linear (saturates).
	if conv.Remap(120) != conv.Remap(60)+conv.Remap(60) && conv.Remap(-120) == 0 {
		// expected saturation shape
	} else {
		t.Fatalf("sigmoid remap looks linear: f(120)=%d f(60)=%d f(-120)=%d",
			conv.Remap(120), conv.Remap(60), conv.Remap(-120))
	}
}

// realisticT is the engine parameters, network and input of
// TestEncryptedInferenceAtRealisticT and BenchmarkInferRealisticT: the
// paper's plaintext modulus t = 65537 (full 2^16-entry LUT, 17-bit
// accumulator headroom, w7a7-style scales) on a MediumParams-class ring,
// N = 2^11 over 12 limbs.
func realisticT() (Params, *qnn.QNetwork, *qnn.IntTensor) {
	p := Params{
		LogN: 11, QiBits: 55, QiNum: 12, T: 65537,
		LWEDim: 128, MidExp: 12, KSBase: 1 << 7, Seed: 2,
	}
	// conv(1->2, 3x3, pad 1, ReLU, w7a7 scales) -> dense(128 -> 4).
	rng := rand.New(rand.NewPCG(41, 42))
	mkW := func(cout, cin, k int, bound int64) [][][][]int64 {
		w := make([][][][]int64, cout)
		for co := range w {
			w[co] = make([][][]int64, cin)
			for ci := range w[co] {
				w[co][ci] = make([][]int64, k)
				for i := range w[co][ci] {
					w[co][ci][i] = make([]int64, k)
					for j := range w[co][ci][i] {
						w[co][ci][i][j] = int64(rng.Uint64N(uint64(2*bound+1))) - bound
					}
				}
			}
		}
		return w
	}
	conv := &qnn.QConv{
		Shape:      coeffenc.ConvShape{H: 8, W: 8, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1},
		Weights:    mkW(2, 1, 3, 63), // 7-bit weights
		Bias:       []int64{5, -3},
		Act:        qnn.ActReLU,
		Multiplier: 1.0 / 512, // 17-bit accumulators -> 7-bit activations
		ActBits:    7,
		MaxAcc:     30000, // just inside t/2 (the Fig. 4 condition)
	}
	dense := &qnn.QConv{
		Shape:      coeffenc.FCShape(2*8*8, 4),
		Weights:    mkW(4, 128, 1, 7),
		Bias:       make([]int64, 4),
		Act:        qnn.ActNone,
		Multiplier: 1.0 / 64,
		ActBits:    7,
		IsDense:    true,
		MaxAcc:     30000,
	}
	net := &qnn.QNetwork{
		Name: "full-t", InC: 1, InH: 8, InW: 8, WBits: 7, ABits: 7, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{conv, dense}},
	}
	return p, net, randInput(1, 8, 8, 63, 44)
}

// TestEncryptedInferenceAtRealisticT runs the pipeline of realisticT.
// This is the slowest single test in the repository — the FBS evaluates
// a degree-65536 polynomial homomorphically.
func TestEncryptedInferenceAtRealisticT(t *testing.T) {
	if testing.Short() {
		t.Skip("full-t engine run is slow; run without -short")
	}
	p, net, x := realisticT()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	want := net.ForwardInt(x).Data
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	// At t=65537 with multiplier 1/512 the e_ms error vanishes in the
	// remap; allow ±1 on the final logits.
	compareLogits(t, got, want, 1)
	t.Logf("full-t inference stats: %+v", e.Stats)
}

// The three-phase client/server API must agree with the one-shot Infer
// and enforce its boundaries.
func TestThreePhaseSession(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "session", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 61),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 62),
		}},
	}
	x := randInput(1, 6, 6, 7, 63)

	in, err := e.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	if in.Size() < 1 {
		t.Fatal("no input ciphertexts")
	}
	out, err := e.EvaluateEncrypted(net, in)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := e.DecryptLogits(out)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range logits {
		d := logits[i] - oneShot[i]
		if d < -2 || d > 2 {
			t.Fatalf("session and one-shot disagree beyond noise: %v vs %v", logits, oneShot)
		}
	}
	// Model mismatch must be rejected.
	other := &qnn.QNetwork{Name: "other", Blocks: net.Blocks, InC: 1, InH: 6, InW: 6, ABits: 4}
	if _, err := e.EvaluateEncrypted(other, in); err == nil {
		t.Fatal("model mismatch accepted")
	}
	// A nil input and an empty network meet the driver's one validation,
	// whichever entry point they arrive through.
	if _, err := e.EvaluateEncrypted(net, nil); !errors.Is(err, errNilInput) {
		t.Fatalf("nil input: %v", err)
	}
	if _, err := e.EvaluateEncryptedBatch(net, []*EncryptedInput{in, nil}); !errors.Is(err, errNilInput) {
		t.Fatalf("nil input in batch: %v", err)
	}
	if _, err := e.EvaluateEncrypted(&qnn.QNetwork{Name: net.Name}, in); !errors.Is(err, errEmptyNetwork) {
		t.Fatalf("empty network: %v", err)
	}
	if _, err := e.DecryptLogits(nil); err == nil {
		t.Fatal("nil logits accepted")
	}
}

// The wire formats of the client/server boundary must round-trip and the
// full serialize → evaluate → serialize → decrypt chain must agree with
// in-memory inference.
func TestSessionWireRoundTrip(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "wire", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 71),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 72),
		}},
	}
	x := randInput(1, 6, 6, 7, 73)
	in, err := e.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteEncryptedInput(in, &buf); err != nil {
		t.Fatal(err)
	}
	in2, err := e.ReadEncryptedInput(net, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.EvaluateEncrypted(net, in2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := e.WriteEncryptedLogits(out, &buf); err != nil {
		t.Fatal(err)
	}
	out2, err := e.ReadEncryptedLogits(net, &buf)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := e.DecryptLogits(out2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range logits {
		d := logits[i] - direct[i]
		if d < -2 || d > 2 {
			t.Fatalf("wire path disagrees: %v vs %v", logits, direct)
		}
	}
	// Wrong model must be rejected on both directions.
	other := &qnn.QNetwork{Name: "nope", Blocks: net.Blocks, InC: 1, InH: 6, InW: 6, ABits: 4}
	buf.Reset()
	if err := e.WriteEncryptedInput(in, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadEncryptedInput(other, &buf); err == nil {
		t.Fatal("model mismatch accepted on input")
	}
}

func TestEngineRejectsUnsupportedBlocks(t *testing.T) {
	e := testEngine(t)
	// A residual block as the first block is unsupported.
	net := &qnn.QNetwork{
		Name: "res-first", InC: 1, InH: 6, InW: 6, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{&qnn.QResidual{ActBits: 4}},
	}
	if _, err := e.Infer(net, randInput(1, 6, 6, 7, 91)); err == nil {
		t.Fatal("residual-first network accepted")
	}
	// Pooling inside a residual body is unsupported.
	net2 := &qnn.QNetwork{
		Name: "pool-in-res", InC: 1, InH: 6, InW: 6, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{
			qnn.QSeq{tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 92)},
			&qnn.QResidual{Body: qnn.QSeq{&qnn.QMaxPool{K: 2}}, ActBits: 4},
			qnn.QSeq{tinyConv(coeffenc.FCShape(2*3*3, 4), qnn.ActNone, 1.0/8, 93)},
		},
	}
	if _, err := e.Infer(net2, randInput(1, 6, 6, 7, 94)); err == nil {
		t.Fatal("pooling inside residual body accepted")
	}
}

func TestEngineDeterminism(t *testing.T) {
	// Two engines built from the same parameters must produce identical
	// encrypted bytes and identical results (the property the TCP demo
	// relies on for its shared-seed key setup).
	p := TestParams()
	e1, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	net := &qnn.QNetwork{
		Name: "det", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 95),
			tinyConv(coeffenc.FCShape(36, 4), qnn.ActNone, 1.0/8, 96),
		}},
	}
	x := randInput(1, 6, 6, 7, 97)
	in1, err := e1.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := e1.WriteEncryptedInput(in1, &b1); err != nil {
		t.Fatal(err)
	}
	in2, err := e2.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.WriteEncryptedInput(in2, &b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-seed engines produced different ciphertext bytes")
	}
	// Cross-engine evaluation: e2 evaluates what e1 encrypted.
	out, err := e2.EvaluateEncrypted(net, in1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.DecryptLogits(out)
	if err != nil {
		t.Fatal(err)
	}
	want := net.ForwardInt(x).Data
	for i := range got {
		d := got[i] - want[i]
		if d < -2 || d > 2 {
			t.Fatalf("cross-engine inference wrong: %v vs %v", got, want)
		}
	}
}

// InferBatch must agree with per-image inference while filling its LUT
// rounds across the batch. The premise changed with window packing: the
// dense layer's three input batches are windows of 32 slots, four to a
// round at N = 128, so one image already takes one LUT round where it
// took three, and "batched < B × per-image" became "batched rounds =
// ⌈B·InBatches/G⌉ ≤ B × per-image". The barrier no longer redistributes
// LWE values, so no image pays a second extraction round: extractions and
// keyswitches are exactly B times the single-image run's.
func TestInferBatchSharesFBS(t *testing.T) {
	e := testEngine(t)
	net := &qnn.QNetwork{
		Name: "batch", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 81),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 82),
		}},
	}
	const inBatches, g = 3, 4 // the dense layer: CB = 32 of 72 inputs, 128/32 windows to a round
	xs := make([]*qnn.IntTensor, 4)
	wants := make([][]int64, len(xs))
	for i := range xs {
		xs[i] = randInput(1, 6, 6, 7, uint64(83+i))
		wants[i] = net.ForwardInt(xs[i]).Data
	}

	// Per-image baseline.
	e.Stats = OpStats{}
	if _, err := e.Infer(net, xs[0]); err != nil {
		t.Fatal(err)
	}
	single := e.Stats
	if single.FBSCalls != 1 || single.Packs != 1 {
		t.Fatalf("one image: %d FBS calls, %d packs, want one round", single.FBSCalls, single.Packs)
	}

	// Three images need three rounds shared or not (9 windows, 4 to a
	// round), so the barrier is not taken; a fourth fits the same three.
	for _, batch := range []int{3, 4} {
		e.Stats = OpStats{}
		got, err := e.InferBatch(net, xs[:batch])
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats
		rounds := (batch*inBatches + g - 1) / g
		if st.FBSCalls != rounds || st.Packs != rounds || rounds > batch*single.FBSCalls {
			t.Fatalf("batch of %d: %d FBS calls, %d packs, want %d rounds (at most %d)",
				batch, st.FBSCalls, st.Packs, rounds, batch*single.FBSCalls)
		}
		if st.FBSInputs != batch*single.FBSInputs || st.S2CCalls != batch*single.S2CCalls {
			t.Fatalf("batch of %d: %d LUT inputs, %d S2C, want %d times %d and %d",
				batch, st.FBSInputs, st.S2CCalls, batch, single.FBSInputs, single.S2CCalls)
		}
		if st.Extractions != batch*single.Extractions || st.KeySwitches != batch*single.KeySwitches {
			t.Fatalf("batch of %d: %d extractions, %d keyswitches, want %d times %d and %d",
				batch, st.Extractions, st.KeySwitches, batch, single.Extractions, single.KeySwitches)
		}
		for i := range got {
			// The same one conversion round as a single-image run, so the
			// same tolerance.
			compareLogits(t, got[i], wants[i], 2)
		}
		t.Logf("batch of %d: %d LUT rounds vs %d per image", batch, rounds, single.FBSCalls)
	}

	if _, err := e.InferBatch(net, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}
