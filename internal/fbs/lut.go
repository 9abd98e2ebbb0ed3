// Package fbs implements Athena's functional bootstrapping (Step ⑤ of
// the framework loop): an arbitrary discrete function over Z_t — the
// fused activation + requantization ("remapping") table — is interpolated
// into the degree-(t-1) polynomial of Eq. 3 and evaluated homomorphically
// over slot-encoded ciphertexts with the Baby-Step Giant-Step
// (Paterson-Stockmeyer) schedule of Alg. 2.
//
// For the Fermat-prime moduli Athena uses (t = 65537, and 257 at test
// scale) the multiplicative group Z_t^* is cyclic of two-power order, so
// the interpolation sums Σ_k LUT(k)·k^j reduce to one power-of-two-length
// DFT over Z_t and the whole table compiles in O(t log t) instead of
// O(t²).
//
// An Evaluator is the compiled, immutable plan of one table; what an
// evaluation writes lives in a Scratch the caller owns (EvaluateWith), so
// one plan serves any number of goroutines. The evaluation runs in bfv's
// extended basis: every power is extended once, and the giant-step sum
// of products is rescaled and relinearized once (eval.go).
package fbs

import (
	"fmt"
	"math/bits"

	"athena/internal/ring"
)

// LUT is a complete function table over Z_t: Table[k] is the output (as a
// residue mod t) for the input residue k. Inputs and outputs are usually
// thought of as centered values in [-t/2, t/2).
type LUT struct {
	T     uint64
	Table []uint64
}

// NewLUT builds a table from a signed function: f receives the centered
// representative of each residue and returns a signed output, reduced mod
// t. This is where Athena fuses the activation with requantization:
// f(x) = Act(round(x·scale)).
func NewLUT(t uint64, f func(x int64) int64) *LUT {
	tm := ring.NewModulus(t)
	l := &LUT{T: t, Table: make([]uint64, t)}
	for k := uint64(0); k < t; k++ {
		l.Table[k] = tm.ReduceInt64(f(tm.Centered(k)))
	}
	return l
}

// ReLULUT returns the plain ReLU table (no remapping).
func ReLULUT(t uint64) *LUT {
	return NewLUT(t, func(x int64) int64 {
		if x < 0 {
			return 0
		}
		return x
	})
}

// Lookup applies the table to a signed value.
func (l *LUT) Lookup(x int64) int64 {
	tm := ring.NewModulus(l.T)
	return tm.Centered(l.Table[tm.ReduceInt64(x)])
}

// Interpolate returns the coefficients c_0..c_{t-1} of the unique
// polynomial of degree < t with FBS(x) = LUT(x) for all x in Z_t (Eq. 3):
//
//	c_0 = LUT(0),   c_i = -Σ_{k≠0} LUT(k)·k^{t-1-i}  (i ≥ 1).
//
// t must be prime (guaranteed by the bfv parameter validation).
func (l *LUT) Interpolate() []uint64 {
	t := l.T
	tm := ring.NewModulus(t)
	// g_j = Σ_{k≠0} LUT(k)·k^j for j = 0..t-2.
	var g []uint64
	if t > 2 && (t-1)&(t-2) == 0 {
		g = l.powerSumsFFT(tm)
	} else {
		g = l.powerSumsNaive(tm)
	}
	c := make([]uint64, t)
	c[0] = l.Table[0]
	for i := uint64(1); i < t; i++ {
		c[i] = tm.Neg(g[t-1-i])
	}
	// Eq. 3's sum runs over all k including 0; with the 0^0 = 1
	// convention the k = 0 term contributes LUT(0) to the x^{t-1}
	// coefficient only (g above omits k = 0).
	c[t-1] = tm.Sub(c[t-1], l.Table[0])
	return c
}

// powerSumsNaive computes g_j directly in O(t²).
func (l *LUT) powerSumsNaive(tm ring.Modulus) []uint64 {
	t := l.T
	g := make([]uint64, t-1)
	for k := uint64(1); k < t; k++ {
		v := l.Table[k]
		if v == 0 {
			continue
		}
		pw := uint64(1)
		for j := uint64(0); j < t-1; j++ {
			g[j] = tm.Add(g[j], tm.Mul(v, pw))
			pw = tm.Mul(pw, k)
		}
	}
	return g
}

// powerSumsFFT computes g_j with one cyclic DFT of length t-1 = 2^s over
// Z_t: writing k = γ^a for a generator γ, g_j = Σ_a LUT(γ^a)·(γ^j)^a is
// the DFT of u_a = LUT(γ^a) evaluated at ω = γ.
func (l *LUT) powerSumsFFT(tm ring.Modulus) []uint64 {
	t := l.T
	n := t - 1 // power of two
	gamma := ring.PrimitiveRoot(t)

	u := make([]uint64, n)
	k := uint64(1)
	for a := uint64(0); a < n; a++ {
		u[a] = l.Table[k]
		k = tm.Mul(k, gamma)
	}
	fftInPlace(u, gamma, tm)
	return u
}

// fftInPlace computes the length-n cyclic DFT X[j] = Σ_a x[a]·ω^{aj} over
// Z_t, n a power of two, ω a primitive n-th root of unity mod t. Output
// in natural order.
func fftInPlace(x []uint64, omega uint64, tm ring.Modulus) {
	n := uint64(len(x))
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fbs: FFT length %d not a power of two", n))
	}
	logN := uint(bits.TrailingZeros64(n))
	// Bit-reversal permutation.
	for i := uint64(0); i < n; i++ {
		j := bits.Reverse64(i) >> (64 - logN)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for s := uint(1); s <= logN; s++ {
		m := uint64(1) << s
		wm := tm.Pow(omega, n>>s) // n/m for power-of-two m = 1<<s
		for start := uint64(0); start < n; start += m {
			w := uint64(1)
			for j := uint64(0); j < m/2; j++ {
				a := x[start+j]
				b := tm.Mul(x[start+j+m/2], w)
				x[start+j] = tm.Add(a, b)
				x[start+j+m/2] = tm.Sub(a, b)
				w = tm.Mul(w, wm)
			}
		}
	}
}
