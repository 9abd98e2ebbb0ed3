package core

import (
	"runtime"
	"sync"
	"testing"

	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

var (
	fullOnce sync.Once
	fullEng  *Engine
	fullErr  error
)

// fullLevelEngine builds one shared engine with dropping disabled: the
// FBS and post levels both sit at the full chain, so no ModDown runs
// between a LUT round and what reads its result.
func fullLevelEngine(t *testing.T) *Engine {
	t.Helper()
	fullOnce.Do(func() {
		p := TestParams()
		p.FBSLevel, p.PostLevel = p.QiNum, p.QiNum
		fullEng, fullErr = NewEngine(p)
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	fullEng.Stats = OpStats{}
	return fullEng
}

// TestLevelsScheduleProperties sweeps explicit (FBSLevel, PostLevel)
// settings — including zero, negative, and beyond-chain values — and
// checks the resolved schedule invariants: the FBS level lands in
// [2, QiNum], the post level in [1, FBSLevel], in-range explicit values
// are honored verbatim, and zeros take the documented defaults.
func TestLevelsScheduleProperties(t *testing.T) {
	base := TestParams()
	for fs := -3; fs <= base.QiNum+3; fs++ {
		for ps := -3; ps <= base.QiNum+3; ps++ {
			p := base
			p.FBSLevel, p.PostLevel = fs, ps
			fbsL, postL := p.Levels()
			if fbsL < 2 || fbsL > p.QiNum {
				t.Fatalf("FBSLevel=%d: resolved fbsL %d outside [2, %d]", fs, fbsL, p.QiNum)
			}
			if postL < 1 || postL > fbsL {
				t.Fatalf("FBSLevel=%d PostLevel=%d: resolved postL %d outside [1, %d]", fs, ps, postL, fbsL)
			}
			if fs >= 2 && fs <= p.QiNum && fbsL != fs {
				t.Fatalf("in-range FBSLevel=%d not honored: got %d", fs, fbsL)
			}
			if ps >= 1 && ps <= fbsL && ps != 0 && postL != ps {
				t.Fatalf("in-range PostLevel=%d not honored: got %d (fbsL %d)", ps, postL, fbsL)
			}
		}
	}
	fbsL, postL := base.Levels()
	if fbsL != base.QiNum-1 || postL != 2 {
		t.Fatalf("defaults: got (%d, %d), want (%d, 2)", fbsL, postL, base.QiNum-1)
	}
}

// TestLevelScheduleInferenceEquivalence runs the same network and input
// through an engine with the default dropping schedule and one with
// dropping disabled (all stages at the full chain). Both must land on
// the exact plaintext reference within the usual rounding tolerance —
// limb dropping is a noise/performance trade, never a semantic one.
func TestLevelScheduleInferenceEquivalence(t *testing.T) {
	net := &qnn.QNetwork{
		Name: "level-equiv", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 21),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 22),
		}},
	}
	x := randInput(1, 6, 6, 7, 23)
	want := net.ForwardInt(x).Data

	gotFull, err := fullLevelEngine(t).Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, gotFull, want, 2)

	dropped := testEngine(t)
	gotDropped, err := dropped.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, gotDropped, want, 2)
}

// TestEqualLevelsOwnResults pins that a packed LUT round belongs to its
// caller when FBSLevel = PostLevel, where no limb drops after the LUT. At
// GOMAXPROCS 1 every round of a layer runs on one worker, so a round that
// handed back the worker's own buffer would be overwritten by the next:
// the three rounds of a four-image batch would all read the last one, and
// softmax's exp and inverse rounds would be one ciphertext.
//
// The net tells that bug from noise by construction: image i is bright
// in quadrant i only, the conv passes pixels through, and logit j sums
// quadrant j of the first channel, so an image's logits are 63 at its
// own index and its bias elsewhere — 126 apart in L1 from any other
// image's, against a noise of a few units per logit. Each image must
// land nearest its own plaintext logits. An image whose rounds read
// another round's windows sums the wrong quadrants: with the last round
// in every buffer, image 2's logits land nearest image 1's.
func TestEqualLevelsOwnResults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := fullLevelEngine(t)
	net := quadrantNet()
	xs := make([]*qnn.IntTensor, 4)
	plain := make([][]int64, len(xs))
	for i := range xs {
		xs[i] = qnn.NewIntTensor(1, 6, 6)
		for y := range 3 {
			for x := range 3 {
				xs[i].Data[(i/2*3+y)*6+i%2*3+x] = 7
			}
		}
		plain[i] = net.ForwardInt(xs[i]).Data
	}
	got, err := e.InferBatch(net, xs)
	if err != nil {
		t.Fatal(err)
	}
	// The dense layer's 12 windows, four to a round, pack 3 rounds.
	if e.Stats.Packs < 3 {
		t.Fatalf("%d packs, want at least the dense layer's 3 rounds", e.Stats.Packs)
	}
	l1 := func(a, b []int64) (d int64) {
		for i := range a {
			d += max(a[i]-b[i], b[i]-a[i])
		}
		return d
	}
	for i := range got {
		nearest := 0
		for j := range plain {
			if l1(got[i], plain[j]) < l1(got[i], plain[nearest]) {
				nearest = j
			}
		}
		if nearest != i {
			t.Fatalf("image %d: encrypted logits %v lie nearest image %d's %v, not its own %v", i, got[i], nearest, plain[nearest], plain[i])
		}
	}

	cfg := e.DefaultSoftmaxConfig(4)
	logits := []int64{6, 2, -1, -5}
	probs, err := e.SoftmaxEncrypted(logits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SoftmaxPlain(logits, cfg)
	for i := range probs {
		if d := probs[i] - want[i]; d < -0.25 || d > 0.25 {
			t.Fatalf("class %d: encrypted %.3f vs plaintext %.3f\ngot:  %v\nwant: %v", i, probs[i], want[i], probs, want)
		}
	}
}

// quadrantNet is a 6×6 conv of two channels that passes each pixel
// through (a centre tap of 1), then a dense layer whose logit j sums
// quadrant j of the first channel, with logits of 8 bits.
func quadrantNet() *qnn.QNetwork {
	conv := tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1, 81)
	for co := range conv.Weights {
		for _, row := range conv.Weights[co][0] {
			clear(row)
		}
		conv.Weights[co][0][1][1] = 1
		conv.Bias[co] = 0
	}
	fc := tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1, 82)
	fc.ActBits = 8
	for j := range fc.Weights {
		for c := range fc.Weights[j] {
			y, x := c/6, c%6
			if c < 36 && y/3*2+x/3 == j {
				fc.Weights[j][c][0][0] = 1
			} else {
				fc.Weights[j][c][0][0] = 0
			}
		}
	}
	return &qnn.QNetwork{
		Name: "equal-levels", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{conv, fc}},
	}
}
