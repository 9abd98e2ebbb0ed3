package ring

import (
	"math"
	"slices"
	"testing"
)

func TestSamplerDeterminism(t *testing.T) {
	r := testRing(t, 8, 2)
	a := r.NewPoly()
	b := r.NewPoly()
	NewSampler(r, 99).Uniform(a)
	NewSampler(r, 99).Uniform(b)
	if !a.Equal(b) {
		t.Fatal("same seed produced different polynomials")
	}
	c := r.NewPoly()
	NewSampler(r, 100).Uniform(c)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical polynomials")
	}
}

func TestTernaryDense(t *testing.T) {
	r := testRing(t, 10, 1)
	s := NewSampler(r, 7)
	p := r.NewPoly()
	v := s.TernaryDense(p)
	counts := map[int64]int{}
	for j, x := range v {
		if x < -1 || x > 1 {
			t.Fatalf("coefficient %d out of {-1,0,1}: %d", j, x)
		}
		counts[x]++
		want := r.Moduli[0].ReduceInt64(x)
		if p.Coeffs[0][j] != want {
			t.Fatalf("residue mismatch at %d", j)
		}
	}
	n := float64(r.N)
	for _, k := range []int64{-1, 0, 1} {
		frac := float64(counts[k]) / n
		if frac < 0.25 || frac > 0.42 {
			t.Fatalf("ternary value %d frequency %.3f far from 1/3", k, frac)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	r := testRing(t, 12, 1)
	s := NewSampler(r, 8)
	p := r.NewPoly()
	v := s.Gaussian(DefaultSigma, p)
	var sum, sumSq float64
	maxAbs := 0.0
	for _, x := range v {
		f := float64(x)
		sum += f
		sumSq += f * f
		if math.Abs(f) > maxAbs {
			maxAbs = math.Abs(f)
		}
	}
	n := float64(len(v))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Fatalf("gaussian mean %.3f too far from 0", mean)
	}
	if std < 2.5 || std > 4.0 {
		t.Fatalf("gaussian std %.3f far from %.1f", std, DefaultSigma)
	}
	if maxAbs > 6*DefaultSigma+1 {
		t.Fatalf("gaussian tail beyond truncation: %.1f", maxAbs)
	}
}

func TestUniformIsWellSpread(t *testing.T) {
	r := testRing(t, 12, 1)
	p := r.NewPoly()
	NewSampler(r, 13).Uniform(p)
	q := float64(r.Moduli[0].Q)
	var sum float64
	for _, x := range p.Coeffs[0] {
		if x >= r.Moduli[0].Q {
			t.Fatal("uniform sample out of range")
		}
		sum += float64(x)
	}
	mean := sum / float64(r.N)
	if mean < 0.45*q || mean > 0.55*q {
		t.Fatalf("uniform mean %.3g not near q/2=%.3g", mean, q/2)
	}
}

// TestRowStreamRows: a row depends on its seed and its (i, j) alone — not
// on the rows drawn before it — rows of distinct indices differ, and
// re-keying and drawing allocate nothing.
func TestRowStreamRows(t *testing.T) {
	const q = uint64(1)<<50 - 27
	seed := [32]byte{1, 2, 3}
	draw := func(s *RowStream, i, j int) []uint64 {
		row := make([]uint64, 64)
		s.Row(&seed, i, j)
		s.UniformRow(row, q)
		return row
	}
	a := NewRowStream(nil)
	first := draw(a, 3, 1)
	draw(a, 0, 0)
	b := NewRowStream(nil)
	if !slices.Equal(draw(b, 3, 1), first) {
		t.Fatal("row (3, 1) depends on the rows drawn before it")
	}
	for _, ij := range [][2]int{{1, 3}, {3, 0}, {0, 1}} {
		if slices.Equal(draw(b, ij[0], ij[1]), first) {
			t.Fatalf("row %v equals row (3, 1)", ij)
		}
	}
	for _, v := range first {
		if v >= q {
			t.Fatalf("residue %d not below %d", v, q)
		}
	}
	row := make([]uint64, 64)
	if n := testing.AllocsPerRun(50, func() {
		a.Row(&seed, 2, 2)
		a.UniformRow(row, q)
	}); n != 0 {
		t.Fatalf("re-keying and drawing a row allocate %v times", n)
	}
}
