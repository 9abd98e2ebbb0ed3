package compiler

import (
	"math"
	"math/rand/v2"
	"testing"

	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/fbs"
	"athena/internal/qnn"
)

// TestTraceTracksEngine cross-validates the compiler against the real
// software pipeline: for a small network executed under encryption at
// test parameters, the trace's pack and S2C counts must equal the
// engine's counters. The FBS CMult counts are two algorithms and are
// checked each against its own arithmetic: the trace models the paper's
// flat Alg. 2 on the layer's range-sized LUT (what internal/arch
// simulates), the engine evaluates the full-t table on the split
// internal/fbs chooses.
func TestTraceTracksEngine(t *testing.T) {
	p := core.TestParams()
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
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
	// Every layer fits one input batch at N=128 so the engine's
	// per-input-batch packing and the trace's per-value-count grouping
	// coincide (at full scale they coincide for all the benchmarks; at
	// test scale fragmented layers pack more often in software).
	net := &qnn.QNetwork{
		Name: "xcheck", InC: 1, InH: 5, InW: 5, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 5, W: 5, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.ConvShape{H: 5, W: 5, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(25, 4), qnn.ActNone, 1.0/8),
		}},
	}
	x := qnn.NewIntTensor(1, 5, 5)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	if _, err := e.Infer(net, x); err != nil {
		t.Fatal(err)
	}

	tr, err := Compile(net, p)
	if err != nil {
		t.Fatal(err)
	}
	var packs, s2c int
	for _, s := range tr.Steps {
		switch s.Kind {
		case KPack:
			packs++
		case KS2C:
			s2c++
		case KFBS:
			// Alg. 2 on the step's LUT: bs − 1 baby powers, gs − 2 giant
			// powers, gs − 1 block products.
			bs := int64(math.Ceil(math.Sqrt(float64(s.LUTSize))))
			gs := (int64(s.LUTSize) + bs - 1) / bs
			if want := (bs - 1) + (gs - 2) + (gs - 1); s.Cat != CatSoftmax && s.Counts.CMult != want {
				t.Fatalf("FBS step %q, LUT size %d: trace has %d CMult, Alg. 2 issues %d", s.Layer, s.LUTSize, s.Counts.CMult, want)
			}
		}
	}
	// The trace includes the softmax epilogue (2 extra pack/FBS/S2C
	// rounds) that the engine's plain Infer path does not execute.
	packs -= 2
	s2c -= 2

	if packs != e.Stats.Packs {
		t.Fatalf("pack count: trace %d vs engine %d", packs, e.Stats.Packs)
	}
	if s2c != e.Stats.S2CCalls {
		t.Fatalf("S2C count: trace %d vs engine %d", s2c, e.Stats.S2CCalls)
	}
	// The engine: every FBS call runs the plan of its layer's table; the
	// tables here are dense, so every plan issues the same products.
	fbsL, _ := p.Levels()
	ctxF, err := e.Ctx.AtLevel(fbsL)
	if err != nil {
		t.Fatal(err)
	}
	perCall := 0
	for _, op := range net.Blocks[0].(qnn.QSeq)[:2] {
		plan, err := fbs.NewEvaluator(ctxF, fbs.NewLUT(p.T, op.(*qnn.QConv).Remap))
		if err != nil {
			t.Fatal(err)
		}
		if perCall != 0 && plan.CMults != perCall {
			t.Fatalf("the layers' plans issue %d and %d CMult per call", perCall, plan.CMults)
		}
		perCall = plan.CMults
	}
	if e.Stats.FBSCalls == 0 || e.Stats.CMult != e.Stats.FBSCalls*perCall {
		t.Fatalf("FBS CMult count: engine %d, %d calls × %d per call = %d", e.Stats.CMult, e.Stats.FBSCalls, perCall, e.Stats.FBSCalls*perCall)
	}
	t.Logf("engine: %d FBS calls × %d CMult", e.Stats.FBSCalls, perCall)
}
