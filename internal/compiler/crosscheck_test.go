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

// TestTraceTracksEngine checks the one walk from both ends. Each net
// runs under encryption, and every counter the schedule states must
// equal the engine's after the run, with no tolerance; the products and
// additions inside the LUTs must equal, round by round, those of the
// table the round applies, compiled as the engine compiles it. Then each
// step's lowering must price what the step issues: a pack, an FBS and an
// S2C per LUT round — Alg. 2 on the table LUTSize sizes by the layer's
// bound —, its ring switches and extractions, and its LWE additions.
//
// The nets: a conv chain, conv → max pool → dense, conv → avg pool →
// dense, a residual block with a projection shortcut, the shapes of
// bench's single_t257 net alone and in a batch of 4 (whose dense layer
// shares its rounds), a batch of 4 whose windows fill their rounds (so
// none is shared), and the shapes of DigitNet14 at the single_t12289
// parameters.
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
	conv := func(h, cin, cout, k, stride, pad int) coeffenc.ConvShape {
		return coeffenc.ConvShape{H: h, W: h, Cin: cin, Cout: cout, K: k, Stride: stride, Pad: pad}
	}
	net := func(name string, in int, blocks ...qnn.QBlock) *qnn.QNetwork {
		return &qnn.QNetwork{Name: name, InC: 1, InH: in, InW: in, WBits: 2, ABits: 4, InScale: 1, Blocks: blocks}
	}
	tiny := net("xcheck-tiny", 6, qnn.QSeq{
		mk(conv(6, 1, 2, 3, 1, 1), qnn.ActReLU, 1.0/2),
		mk(conv(6, 2, 2, 3, 1, 1), qnn.ActReLU, 1.0/2),
		mk(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8),
	})
	cases := []struct {
		net    *qnn.QNetwork
		batch  int
		shared bool
	}{
		{net("xcheck", 5, qnn.QSeq{
			mk(conv(5, 1, 1, 3, 1, 1), qnn.ActReLU, 1.0/16),
			mk(conv(5, 1, 1, 3, 1, 1), qnn.ActReLU, 1.0/16),
			mk(coeffenc.FCShape(25, 4), qnn.ActNone, 1.0/8),
		}), 1, false},
		{net("xcheck-max", 6, qnn.QSeq{
			mk(conv(6, 1, 2, 3, 1, 1), qnn.ActReLU, 1.0/16),
			&qnn.QMaxPool{K: 2},
			mk(coeffenc.FCShape(18, 4), qnn.ActNone, 1.0/8),
		}), 1, false},
		{net("xcheck-avg", 6, qnn.QSeq{
			mk(conv(6, 1, 2, 3, 1, 1), qnn.ActReLU, 1.0/16),
			&qnn.QAvgPool{K: 2},
			mk(coeffenc.FCShape(18, 4), qnn.ActNone, 1.0/8),
		}), 1, false},
		{net("xcheck-proj", 6,
			qnn.QSeq{mk(conv(6, 1, 2, 3, 1, 1), qnn.ActReLU, 1.0/16)},
			&qnn.QResidual{
				Body:     qnn.QSeq{mk(conv(6, 2, 4, 3, 2, 1), qnn.ActReLU, 1.0/16), mk(conv(3, 4, 4, 3, 1, 1), qnn.ActNone, 1.0/16)},
				Shortcut: qnn.QSeq{mk(conv(6, 2, 4, 1, 2, 0), qnn.ActNone, 1.0/8)},
				ActBits:  4,
			},
			qnn.QSeq{mk(coeffenc.FCShape(4*3*3, 4), qnn.ActNone, 1.0/8)},
		), 1, false},
		{tiny, 1, false},
		{tiny, 4, true},
		{net("xcheck-full", 8, qnn.QSeq{
			mk(conv(8, 1, 1, 3, 1, 1), qnn.ActReLU, 1.0/16),
			mk(conv(8, 1, 1, 3, 1, 1), qnn.ActReLU, 1.0/16),
			mk(conv(8, 1, 1, 3, 1, 1), qnn.ActNone, 1.0/8),
		}), 4, false},
	}
	for _, c := range cases {
		checkSchedule(t, e, p, c.net, c.batch, c.shared, rng)
	}

	if testing.Short() {
		t.Skip("the DigitNet14 shape needs an N = 512, t = 12289 engine; run without -short")
	}
	p = core.Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289, LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3}
	if e, err = core.NewEngine(p); err != nil {
		t.Fatal(err)
	}
	digit := net("xcheck-digit", 14, qnn.QSeq{
		mk(conv(14, 1, 4, 3, 2, 1), qnn.ActReLU, 1.0/16),
		mk(coeffenc.FCShape(4*7*7, 10), qnn.ActNone, 1.0/8),
	})
	checkSchedule(t, e, p, digit, 1, false, rng)
}

// checkSchedule runs net on batch random inputs and holds the engine's
// counters and the lowering of every step to net's schedule.
func checkSchedule(t *testing.T, e *core.Engine, p core.Params, net *qnn.QNetwork, batch int, shared bool, rng *rand.Rand) {
	t.Helper()
	s, err := core.NewSchedule(net, p, batch)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]*core.EncryptedInput, batch)
	for i := range ins {
		x := qnn.NewIntTensor(net.InC, net.InH, net.InW)
		for j := range x.Data {
			x.Data[j] = int64(rng.IntN(8))
		}
		if ins[i], err = e.EncryptInput(net, x); err != nil {
			t.Fatal(err)
		}
	}
	e.Stats = core.OpStats{}
	if _, err := e.EvaluateEncryptedBatch(net, ins); err != nil {
		t.Fatalf("%s: %v", net.Name, err)
	}

	fbsL, _ := p.Levels()
	ctxF, err := e.Ctx.AtLevel(fbsL)
	if err != nil {
		t.Fatal(err)
	}
	compiled := map[string]*fbs.Evaluator{}
	var want core.OpStats
	sawShared := false
	for i := range s.Steps {
		st := &s.Steps[i]
		want.Add(st.Stats)
		sawShared = sawShared || st.Shared
		for _, r := range st.Rounds {
			tb := r.Table
			if tb.Fn == nil {
				continue
			}
			key := string(fbs.AppendTable(nil, p.T, tb.Span.Lo, tb.Span.Hi, tb.Fn))
			ev := compiled[key]
			if ev == nil {
				lut, err := fbs.NewRangeLUT(p.T, tb.Span.Lo, tb.Span.Hi, tb.Fn)
				if err != nil {
					t.Fatal(err)
				}
				if ev, err = fbs.NewEvaluator(ctxF, lut); err != nil {
					t.Fatal(err)
				}
				compiled[key] = ev
			}
			want.CMult += ev.CMults
			want.SMult += ev.SMults
			want.HAdd += ev.HAdds
		}
		checkLowering(t, net.Name, i, st, p, int64(batch))
	}
	if sawShared != shared {
		t.Fatalf("%s at batch %d: shared rounds %v, want %v", net.Name, batch, sawShared, shared)
	}
	if e.Stats != want {
		t.Fatalf("%s at batch %d: engine %+v, schedule %+v", net.Name, batch, e.Stats, want)
	}
	t.Logf("%s at batch %d: %d steps, %+v", net.Name, batch, len(s.Steps), want)
}

// checkLowering requires step i's lowering to price what the step
// issues.
func checkLowering(t *testing.T, name string, i int, st *core.Step, p core.Params, batch int64) {
	t.Helper()
	lo := &lowering{p: p}
	lo.step(st, batch)
	var packs, fbsSteps, s2c, linear int
	var got OpCounts
	for _, ts := range lo.steps {
		got.Add(ts.Counts)
		switch ts.Kind {
		case KPack:
			packs++
		case KS2C:
			s2c++
		case KLinear:
			linear++
		case KFBS:
			fbsSteps++
			// Alg. 2 on the step's LUT: bs − 1 baby powers, gs − 2 giant
			// powers, gs − 1 block products.
			bs := int64(math.Ceil(math.Sqrt(float64(ts.LUTSize))))
			gs := (int64(ts.LUTSize) + bs - 1) / bs
			if want := (bs - 1) + (gs - 2) + (gs - 1); ts.Counts.CMult != want {
				t.Fatalf("%s step %d: LUT size %d priced at %d CMult, Alg. 2 issues %d", name, i, ts.LUTSize, ts.Counts.CMult, want)
			}
		}
	}
	n := st.Stats
	wantLinear := 0
	if st.Kind == core.StepConv {
		wantLinear = 1
	}
	if fbsSteps != n.FBSCalls || packs != n.FBSCalls || s2c != n.FBSCalls || linear != wantLinear ||
		got.SE != int64(n.Extractions) || got.KeySwitch != int64(n.KeySwitches) || got.LWEAdd != int64(n.LWEAdds) {
		t.Fatalf("%s step %d: lowered to %d packs, %d FBS, %d S2C, %d linear, %+v; the step issues %+v",
			name, i, packs, fbsSteps, s2c, linear, got, n)
	}
}
