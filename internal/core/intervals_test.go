package core_test

import (
	"sync"
	"testing"

	"athena/internal/core"
	"athena/internal/fbs"
	"athena/internal/qnn"
	"athena/internal/serve"
)

// signOf returns the sign of w as −1, 0 or 1.
func signOf(w int64) int64 {
	switch {
	case w > 0:
		return 1
	case w < 0:
		return -1
	}
	return 0
}

// firstLayerEnd returns an input that drives one accumulator of the
// network's first conv exactly to an end of its proven interval: the
// channel reaching that end, at a window inside the image, reads
// ±lim·sign(w) under each weight w. dir is +1 for Hi, −1 for Lo.
func firstLayerEnd(t *testing.T, net *qnn.QNetwork, dir int64) *qnn.IntTensor {
	t.Helper()
	q := net.Convs()[0]
	lim := int64(1)<<(net.ABits-1) - 1
	in := qnn.Interval{Lo: -lim, Hi: lim}
	want := q.AccInterval(in)
	s := q.Shape
	oy, ox := s.OutH()/2, s.OutW()/2
	for co := range q.Weights {
		x := qnn.NewIntTensor(s.Cin, s.H, s.W)
		for ci := range q.Weights[co] {
			for i, row := range q.Weights[co][ci] {
				for j, w := range row {
					x.Set(ci, oy*s.Stride+i-s.Pad, ox*s.Stride+j-s.Pad, dir*lim*signOf(w))
				}
			}
		}
		got := q.Accumulate(x).At(co, oy, ox)
		if (dir > 0 && got == want.Hi) || (dir < 0 && got == want.Lo) {
			return x
		}
	}
	t.Fatalf("%s: no channel reaches the end of %+v", q.OpName(), want)
	return nil
}

// climbSecondLayer hill-climbs an input, from start, toward an end of
// the second conv's accumulators (dir +1: the greatest, −1: the least):
// coordinate by coordinate, each input takes whichever of −lim, 0 and lim
// moves the extreme furthest, until a pass changes nothing. (Every value
// of the domain in place of the three climbs no further on these nets,
// at five times the cost.) It returns
// the input and the extreme it reached.
func climbSecondLayer(net *qnn.QNetwork, start *qnn.IntTensor, dir int64) (*qnn.IntTensor, int64) {
	convs := net.Convs()
	lim := int64(1)<<(net.ABits-1) - 1
	score := func(x *qnn.IntTensor) int64 {
		best := int64(-1 << 62)
		for _, v := range convs[1].Accumulate(convs[0].Apply(x)).Data {
			best = max(best, dir*v)
		}
		return best
	}
	x := start.Clone()
	best := score(x)
	for changed := true; changed; {
		changed = false
		for i := range x.Data {
			old := x.Data[i]
			for _, v := range []int64{-lim, 0, lim} {
				x.Data[i] = v
				if s := score(x); s > best {
					best, old, changed = s, v, true
				}
			}
			x.Data[i] = old
		}
	}
	return x, dir * best
}

// checkIntervalEnds runs net encrypted on the inputs that drive its first
// conv's accumulators to both ends of their proven interval and on those
// hill-climbed toward both ends of its second's, and requires the logits
// of ForwardInt within tol.
func checkIntervalEnds(t *testing.T, e *core.Engine, net *qnn.QNetwork, tol int64) {
	t.Helper()
	convs := net.Convs()
	lim := int64(1)<<(net.ABits-1) - 1
	first := convs[0].AccInterval(qnn.Interval{Lo: -lim, Hi: lim})
	// The second conv reads the first table's image on its span.
	lo, hi := fbs.Span(e.P.T, first.Lo-e.EmsMargin(), first.Hi+e.EmsMargin())
	second := convs[1].AccInterval(qnn.Image(convs[0].Remap, qnn.Interval{Lo: lo, Hi: hi}))
	for _, dir := range []int64{1, -1} {
		x := firstLayerEnd(t, net, dir)
		climbed, reached := climbSecondLayer(net, x, dir)
		t.Logf("%s: first conv proven %+v; second proven %+v, climbed to %d", net.Name, first, second, reached)
		if reached > second.Hi || reached < second.Lo {
			t.Fatalf("a climb reached %d outside the proven %+v", reached, second)
		}
		for _, in := range []*qnn.IntTensor{x, climbed} {
			got, err := e.Infer(net, in)
			if err != nil {
				t.Fatal(err)
			}
			want := net.ForwardInt(in).Data
			for i := range got {
				if d := got[i] - want[i]; d > tol || d < -tol {
					t.Fatalf("%s: logit %d encrypted %d, ForwardInt %d\ngot  %v\nwant %v", net.Name, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

var (
	digitOnce sync.Once
	digitNet  *qnn.QNetwork
	digitErr  error
)

// trainedDigitNet14 trains and quantizes DigitNet14 to w5a6, as
// examples/mnistcnn does.
func trainedDigitNet14(t *testing.T) *qnn.QNetwork {
	t.Helper()
	digitOnce.Do(func() {
		ds := qnn.SynthDigits(900, 11)
		train := &qnn.Dataset{Name: ds.Name + "-14", Classes: ds.Classes}
		for _, s := range ds.Samples {
			x := qnn.NewTensor(1, 14, 14)
			for y := 0; y < 14; y++ {
				for xx := 0; xx < 14; xx++ {
					x.Set(0, y, xx, (s.X.At(0, 2*y, 2*xx)+s.X.At(0, 2*y, 2*xx+1)+s.X.At(0, 2*y+1, 2*xx)+s.X.At(0, 2*y+1, 2*xx+1))/4)
				}
			}
			train.Samples = append(train.Samples, qnn.Sample{X: x, Label: s.Label})
		}
		net := qnn.NewDigitNet14(5)
		cfg := qnn.DefaultTrainConfig()
		cfg.Epochs = 10
		qnn.Train(net, train, cfg)
		digitNet, digitErr = qnn.Quantize(net, train, qnn.QuantConfig{WBits: 5, ABits: 6, CalibSamples: 32, AccMargin: 1.3, AccCap: 5500})
	})
	if digitErr != nil {
		t.Fatal(digitErr)
	}
	return digitNet
}

// TestRangeTablesAtIntervalEnds: with every conv's table sized to its
// proven interval, encrypted inference still equals ForwardInt where the
// accumulators are at their most extreme — at the ends of the first
// conv's interval exactly, and as far toward the second's as a hill-climb
// gets — on DemoNet at TestParams and on the trained DigitNet14 at the
// single_t12289 parameters.
func TestRangeTablesAtIntervalEnds(t *testing.T) {
	e, err := core.NewEngine(core.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	checkIntervalEnds(t, e, serve.DemoNet(), 3)
	if testing.Short() {
		t.Skip("DigitNet14 needs training and an N = 512, t = 12289 engine; run without -short")
	}
	e, err = core.NewEngine(core.Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289,
		LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervalEnds(t, e, trainedDigitNet14(t), 1)
}
