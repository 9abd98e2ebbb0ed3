// radixdemo seeds the radix-8 butterfly shapes: a radix-8 layer gathers
// eight lanes through stacked lazy adds, so the legal schedules narrow
// between layers (twiddle Shoup multiplies, or an explicit fold) while
// the illegal ones stack <4q sums straight into <2q-input kernels.
package lazydemo

import "fixture/internal/ring"

// BadRadix8Gather stacks two lazy adds the way a naive radix-8 gather
// would: the first AddLazy yields <4q, which violates the second's <2q
// input contract — the exact overflow the radix-8 schedule must avoid.
func BadRadix8Gather(m ring.Modulus, a, b, c uint64) uint64 {
	t := m.AddLazy(a, b)
	u := m.AddLazy(t, c) // want moddomain
	return m.Reduce4Q(u)
}

// BadRadix8Fold folds a gathered <4q lane with the half-width reducer, a
// radix-4-era habit that overflows on the radix-8 accumulation depth.
func BadRadix8Fold(m ring.Modulus, a, b uint64) uint64 {
	t := m.AddLazy(a, b)
	return m.Reduce2Q(t) // want moddomain
}

// GoodRadix8Twiddle is a well-formed fused-layer schedule: each <4q
// gather is narrowed back to <2q by the twiddle's Shoup multiply before
// the next layer's AddLazy, so the accumulation never exceeds <4q.
func GoodRadix8Twiddle(m ring.Modulus, a, b, c, d, w uint64) uint64 {
	t := m.MulShoupLazy(m.AddLazy(a, b), w)
	u := m.MulShoupLazy(m.AddLazy(c, d), w)
	return m.Reduce4Q(m.AddLazy(t, u))
}

// GoodRadix8Fold is the alternative legal schedule: an explicit <4q fold
// between layers instead of the twiddle narrowing.
func GoodRadix8Fold(m ring.Modulus, a, b, c uint64) uint64 {
	t := m.Reduce4Q(m.AddLazy(a, b))
	return m.Reduce4Q(m.AddLazy(t, c))
}
