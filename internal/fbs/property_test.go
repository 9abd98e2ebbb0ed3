package fbs

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"athena/internal/ring"
)

// Property: for ANY table over Z_t, the interpolated polynomial agrees
// with the table at every point — the defining property of Eq. 3.
func TestQuickInterpolationIsExact(t *testing.T) {
	for _, tq := range []uint64{17, 97, 257} {
		tm := ring.NewModulus(tq)
		f := func(seed uint64) bool {
			rng := rand.New(rand.NewPCG(seed, tq))
			l := &LUT{T: tq, Table: make([]uint64, tq)}
			for k := range l.Table {
				l.Table[k] = rng.Uint64N(tq)
			}
			c := l.Interpolate()
			// Check a random sample of points plus the edge cases.
			pts := []uint64{0, 1, tq - 1, rng.Uint64N(tq), rng.Uint64N(tq)}
			for _, x := range pts {
				if evalPoly(c, x, tm) != l.Table[x] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("t=%d: %v", tq, err)
		}
	}
}

// Property: LUT composition — interpolating f∘g equals looking up g then
// f (closure of the representation under composition, which is what lets
// the engine fuse scaling into pending LUTs).
func TestQuickLUTComposition(t *testing.T) {
	const tq = 257
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		// Keep the composed range inside (-t/2, t/2) so centered lookup
		// equals the raw integer composition.
		div := 8 + int64(rng.Uint64N(8))
		g := NewLUT(tq, func(x int64) int64 { return x / div })
		scale := int64(1 + rng.Uint64N(7))
		composed := NewLUT(tq, func(x int64) int64 { return g.Lookup(x) * scale })
		for i := 0; i < 20; i++ {
			x := int64(rng.Uint64N(tq)) - int64(tq)/2
			if composed.Lookup(x) != g.Lookup(x)*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the DFT power sums agree with the direct ones for any table,
// over a Fermat prime and over one with an odd cofactor.
func TestQuickFFTEquivalence(t *testing.T) {
	for _, tq := range []uint64{257, 97} {
		tm := ring.NewModulus(tq)
		f := func(seed uint64) bool {
			rng := rand.New(rand.NewPCG(seed, 5))
			l := &LUT{T: tq, Table: make([]uint64, tq)}
			for k := range l.Table {
				l.Table[k] = rng.Uint64N(tq)
			}
			fft := l.powerSums(tm)
			naive := l.powerSumsNaive(tm)
			for j := range naive {
				if fft[j] != naive[j] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("t=%d: %v", tq, err)
		}
	}
}
