package fbs

import (
	"fmt"
	"math"
	"math/bits"
)

// split is the three-digit index decomposition of a plan of d
// coefficients — t for a full table, fewer for a range-sized one:
// coefficient index = b + bs·(a₁ + g₁·a₂) with b < bs, a₁ < g₁, a₂ < g₂.
// gs = ⌈d/bs⌉ counts the giant steps a = a₁ + g₁·a₂ that exist, so g₂ =
// ⌈gs/g₁⌉ and the last middle sum may be ragged (gs not a multiple of
// g₁). 2 ≤ bs < d, hence gs ≥ 2, and 2 ≤ g₁ ≤ gs: the flat Alg. 2 split
// is g₁ = gs, g₂ = 1.
type split struct{ bs, g1, g2, gs int }

// Weights of a split's cost, in halves of one bfv.Accumulate. They are
// the PR 17 one-worker profile of a dense t = 12289 call at N = 512 and
// nine limbs — FinishInto 1.31 ms, ExtendInto 0.38 ms, Accumulate 0.15 ms
// — rounded to integers. They are constants, not measured when a plan is
// built: the ratio is set by what the kernels do (a finish is three
// inverse NTTs, rescales and base conversions plus a keyswitch; an
// extension two inverse NTTs, conversions and NTTs; a product eight
// pointwise passes) and moves little with N or the limb count, while a
// timing taken at construction would make the split, and with it every
// ciphertext byte and operation count, depend on the host and its load.
const (
	finishWeight  = 18
	extendWeight  = 5
	productWeight = 2
)

// newSplit returns the split with baby step bs and first giant digit g₁
// for d coefficients.
func newSplit(d, bs, g1 int) (split, error) {
	if bs < 2 || bs >= d {
		return split{}, fmt.Errorf("fbs: baby step %d outside [2, d) for d = %d", bs, d)
	}
	gs := (d + bs - 1) / bs
	if g1 < 2 || g1 > gs {
		return split{}, fmt.Errorf("fbs: giant digit %d outside [2, %d] for d = %d, baby step %d", g1, gs, d, bs)
	}
	return split{bs: bs, g1: g1, g2: (gs + g1 - 1) / g1, gs: gs}, nil
}

// flatSplit is Alg. 2's single-level split of d coefficients, bs =
// ⌈√d⌉: the reference the chosen split's depth is held to. There is none
// below d = 3.
func flatSplit(d int) (split, error) {
	if d < 3 {
		return split{}, fmt.Errorf("fbs: no split of d = %d", d)
	}
	bs := int(math.Ceil(math.Sqrt(float64(d))))
	return newSplit(d, bs, (d+bs-1)/bs)
}

// yTop is the highest power of y = x^bs the plan builds: y^(g₁−1) is the
// last a middle sum reads, and z = y^g₁ exists only with a second level.
func (s split) yTop() int {
	if s.g2 == 1 {
		return s.g1 - 1
	}
	return s.g1
}

// ladders counts the products and the extensions of the three power
// ladders x² … x^bs, y² … y^yTop and z² … z^(g₂−1). Every rung is one
// product finished once; the rungs of the y and z ladders are extended,
// of the baby powers x^1 … x^⌈bs/2⌉ (which the ladder itself reads) and
// x^bs.
func (s split) ladders() (products, extensions int) {
	giant := s.yTop() - 1 + max(s.g2-2, 0)
	return s.bs - 1 + giant, (s.bs+1)/2 + 1 + giant
}

// counts returns the finishes, extensions and products of one evaluation
// of a dense polynomial. Beyond the ladders: every giant step but the
// first of its middle sum is one inner sum extended and multiplied by a
// power of y (gs − g₂ of them); every middle sum but the first is
// extended and multiplied by a power of z, after one finish if it holds a
// product (a ragged last one of a single row does not); the final sum is
// finished once.
func (s split) counts() (finishes, extensions, products int) {
	products, extensions = s.ladders()
	mids, inner := s.g2-1, s.gs-s.g2
	finishes = products + mids + 1
	if mids > 0 && s.gs-s.g1*mids == 1 {
		finishes--
	}
	return finishes, extensions + inner + mids, products + inner + mids
}

// cost is the weighted count the chooser minimises.
func (s split) cost() int {
	f, e, p := s.counts()
	return finishWeight*f + extendWeight*e + productWeight*p
}

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// depth is the multiplicative depth of the result. Rung k of a ladder is
// the product of rungs ⌊k/2⌋ and ⌈k/2⌉, ⌈log₂ k⌉ levels above rung 1; a
// middle sum is one product above y^(g₁−1) (the inner sums sit below y),
// and with a second level the result is one product above the deeper of
// the middle sums and z^(g₂−1).
func (s split) depth() int {
	y := ceilLog2(s.bs)
	mid := y + ceilLog2(s.g1-1) + 1
	if s.g2 == 1 {
		return mid
	}
	return max(mid, y+ceilLog2(s.g1)+ceilLog2(s.g2-1)) + 1
}

// terms is the most products any accumulator holds: g₁ − 1 in a middle
// sum, and the first middle sum's beside the g₂ − 1 products by powers of
// z in the final one.
func (s split) terms() int { return s.g1 - 1 + s.g2 - 1 }

// chooseSplit returns the cheapest split of d coefficients — the first
// in (bs, g₁) order among those of least cost — whose depth does not
// exceed the flat split's and whose accumulators stay within capacity
// (the context's bfv.Context.SumCapacity). It fails when no split
// satisfies both.
func chooseSplit(d, capacity int) (split, error) {
	flat, err := flatSplit(d)
	if err != nil {
		return split{}, err
	}
	limit := flat.depth()
	var best split
	bestCost := math.MaxInt
	for bs := 2; bs < d; bs++ {
		gs := (d + bs - 1) / bs
		for g1 := 2; g1 <= gs; g1++ {
			s := split{bs: bs, g1: g1, g2: (gs + g1 - 1) / g1, gs: gs}
			if c := s.cost(); c < bestCost && s.depth() <= limit && s.terms() <= capacity {
				best, bestCost = s, c
			}
		}
	}
	if best.bs == 0 {
		return split{}, fmt.Errorf("fbs: no split of d = %d within depth %d keeps its sums within %d products", d, limit, capacity)
	}
	return best, nil
}
