package qnn

import (
	"math/rand/v2"
	"testing"

	"athena/internal/coeffenc"
)

// TestAccIntervalHoldsEveryAccumulator: for inputs drawn from an interval
// that does not hold 0, every accumulator of a padded conv — border
// windows read zero padding — lies in AccInterval, which bounds the
// input interval widened to 0.
func TestAccIntervalHoldsEveryAccumulator(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := coeffenc.ConvShape{H: 5, W: 5, Cin: 2, Cout: 3, K: 3, Stride: 1, Pad: 1}
	q := &QConv{Shape: s, Bias: []int64{4, -9, 0}}
	q.Weights = make([][][][]int64, s.Cout)
	for co := range q.Weights {
		q.Weights[co] = make([][][]int64, s.Cin)
		for ci := range q.Weights[co] {
			q.Weights[co][ci] = [][]int64{make([]int64, 3), make([]int64, 3), make([]int64, 3)}
			for i := range q.Weights[co][ci] {
				for j := range q.Weights[co][ci][i] {
					q.Weights[co][ci][i][j] = rng.Int64N(15) - 7
				}
			}
		}
	}
	in := Interval{Lo: 2, Hi: 5}
	iv := q.AccInterval(in)
	for trial := 0; trial < 200; trial++ {
		x := NewIntTensor(s.Cin, s.H, s.W)
		for i := range x.Data {
			x.Data[i] = in.Lo + rng.Int64N(in.Hi-in.Lo+1)
		}
		for _, v := range q.Accumulate(x).Data {
			if v < iv.Lo || v > iv.Hi {
				t.Fatalf("accumulator %d outside %+v", v, iv)
			}
		}
	}
	if want := (Interval{0, 5}); q.AccInterval(Interval{0, 5}) != iv {
		t.Fatalf("[2, 5] gives %+v, %+v gives %+v: the input interval is not widened to 0", iv, want, q.AccInterval(want))
	}
}

// TestImage: the image is f's least and greatest value over the points.
func TestImage(t *testing.T) {
	if got := Image(func(x int64) int64 { return x * x }, Interval{-3, 2}); got != (Interval{0, 9}) {
		t.Fatalf("x² on [−3, 2]: %+v", got)
	}
}
