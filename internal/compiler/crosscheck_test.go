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
// test parameters, the trace's pack and S2C counts, and its Step ③
// counts — one ring keyswitch per result ciphertext, one extraction per
// value — must equal the engine's counters. The FBS CMult counts are two algorithms and are
// checked each against its own arithmetic: the trace models the paper's
// flat Alg. 2 on the layer's range-sized LUT (what internal/arch
// simulates), the engine evaluates the table on the layer's proven
// interval on the split internal/fbs chooses for it.
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
	checkTraceCounts(t, tr, e.Stats)
	for _, s := range tr.Steps {
		if s.Kind == KFBS {
			// Alg. 2 on the step's LUT: bs − 1 baby powers, gs − 2 giant
			// powers, gs − 1 block products.
			bs := int64(math.Ceil(math.Sqrt(float64(s.LUTSize))))
			gs := (int64(s.LUTSize) + bs - 1) / bs
			if want := (bs - 1) + (gs - 2) + (gs - 1); s.Cat != CatSoftmax && s.Counts.CMult != want {
				t.Fatalf("FBS step %q, LUT size %d: trace has %d CMult, Alg. 2 issues %d", s.Layer, s.LUTSize, s.Counts.CMult, want)
			}
		}
	}
	// The engine: every FBS call runs the plan of its layer's table, the
	// one on the layer's proven interval widened by the margin E; the
	// next layer reads that table's image there.
	fbsL, _ := p.Levels()
	ctxF, err := e.Ctx.AtLevel(fbsL)
	if err != nil {
		t.Fatal(err)
	}
	perCall, in := 0, qnn.Interval{Lo: -7, Hi: 7}
	for _, op := range net.Blocks[0].(qnn.QSeq)[:2] {
		q := op.(*qnn.QConv)
		acc := q.AccInterval(in)
		lo, hi := fbs.Span(p.T, acc.Lo-e.EmsMargin(), acc.Hi+e.EmsMargin())
		lut, err := fbs.NewRangeLUT(p.T, lo, hi, q.Remap)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fbs.NewEvaluator(ctxF, lut)
		if err != nil {
			t.Fatal(err)
		}
		perCall += plan.CMults
		in = qnn.Image(q.Remap, qnn.Interval{Lo: lo, Hi: hi})
	}
	if e.Stats.FBSCalls != 2 || e.Stats.CMult != perCall {
		t.Fatalf("FBS CMult count: engine %d in %d calls, the layers' two plans %d", e.Stats.CMult, e.Stats.FBSCalls, perCall)
	}
	t.Logf("engine: %d FBS calls, %d CMult", e.Stats.FBSCalls, perCall)

	// A pooled net: conv → 2×2 max pool → dense, every layer in one input
	// batch. The pool's tree issues its ReLU rounds and LWE work as the
	// trace lowers them.
	pooled := &qnn.QNetwork{
		Name: "xcheck-max", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			mk(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16),
			&qnn.QMaxPool{K: 2},
			mk(coeffenc.FCShape(18, 4), qnn.ActNone, 1.0/8),
		}},
	}
	x = qnn.NewIntTensor(1, 6, 6)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	e.Stats = core.OpStats{}
	if _, err := e.Infer(pooled, x); err != nil {
		t.Fatal(err)
	}
	if tr, err = Compile(pooled, p); err != nil {
		t.Fatal(err)
	}
	checkTraceCounts(t, tr, e.Stats)
}

// checkTraceCounts requires the trace's packs, S2C calls, Step ③
// keyswitches and extractions, and LWE additions to equal the engine's
// counters. The trace includes the softmax epilogue (2 extra
// pack/FBS/S2C rounds) that the engine's plain Infer path does not
// execute.
func checkTraceCounts(t *testing.T, tr *Trace, st core.OpStats) {
	t.Helper()
	var packs, s2c int
	var keySwitches, extractions, lweAdds int64
	for _, s := range tr.Steps {
		if s.Cat == CatSoftmax {
			continue
		}
		switch s.Kind {
		case KPack:
			packs++
		case KS2C:
			s2c++
		case KSE:
			keySwitches += s.Counts.KeySwitch
			extractions += s.Counts.SE
		}
		lweAdds += s.Counts.LWEAdd
	}
	if packs != st.Packs {
		t.Fatalf("%s: pack count: trace %d vs engine %d", tr.Model, packs, st.Packs)
	}
	if s2c != st.S2CCalls {
		t.Fatalf("%s: S2C count: trace %d vs engine %d", tr.Model, s2c, st.S2CCalls)
	}
	if keySwitches != int64(st.KeySwitches) || extractions != int64(st.Extractions) {
		t.Fatalf("%s: Step ③: trace %d keyswitches and %d extractions, engine %d and %d",
			tr.Model, keySwitches, extractions, st.KeySwitches, st.Extractions)
	}
	if lweAdds != int64(st.LWEAdds) {
		t.Fatalf("%s: LWE additions: trace %d vs engine %d", tr.Model, lweAdds, st.LWEAdds)
	}
	t.Logf("%s: %d packs, %d S2C, %d keyswitches, %d extractions, %d LWE additions", tr.Model, packs, s2c, keySwitches, extractions, lweAdds)
}
