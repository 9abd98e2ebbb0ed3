package main

import (
	"math"
	"sort"
)

// summary is how every sampled metric is printed and stored: sample
// count, median, minimum, median absolute deviation, quartiles, and the
// tail percentile the sample supports (TailPct 0 = too few samples).
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	MAD     float64 `json:"mad"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianSorted is the median of an ascending slice (0 when empty).
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(xs []float64) float64 { return medianSorted(sorted(xs)) }

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because
// that is the rule the acceptance spread is computed with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailLadder are the percentiles a latency tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, and that percentile's value. ok
// is false when even the lowest rung leaves fewer than ten.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if beyond >= 10 {
			return p, s[n-beyond-1], true
		}
	}
	return 0, 0, false
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	out := summary{N: len(s), Median: medianSorted(s), Min: s[0], MAD: mad(s), Q1: q1, Q3: q3}
	if p, v, ok := tailPercentile(s); ok {
		out.TailPct, out.Tail = p, v
	}
	return out
}

// spread is the interquartile distance as a share of the median: the
// run-to-run spread the bounds in BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
