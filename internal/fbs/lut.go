// Package fbs implements Athena's functional bootstrapping (Step ⑤ of
// the framework loop): an arbitrary discrete function over Z_t — the
// fused activation + requantization ("remapping") table — is interpolated
// into the degree-(t-1) polynomial of Eq. 3 and evaluated homomorphically
// over slot-encoded ciphertexts with the Baby-Step Giant-Step
// (Paterson-Stockmeyer) schedule of Alg. 2, taken to two giant levels.
//
// The multiplicative group Z_t^* is cyclic, so the interpolation sums
// Σ_k LUT(k)·k^j are one DFT of length t − 1 over Z_t. For the
// Fermat-prime moduli Athena uses (t = 65537, and 257 at test scale) the
// length is a power of two; in general t − 1 = m·2^s with m odd splits
// into m power-of-two transforms (m = 3 at t = 12289), so a table
// compiles in O(t log t + m·t) instead of O(t²).
//
// An Evaluator is the compiled, immutable plan of one table; what an
// evaluation writes lives in a Scratch the caller owns (EvaluateInto), so
// one plan serves any number of goroutines. The evaluation runs in bfv's
// extended basis on a split chosen by cost (split.go): every power is
// extended once, and every sum of products — a middle sum, the final sum
// — is rescaled and relinearized once (eval.go).
package fbs

import (
	"encoding/binary"
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

// AppendTable appends the little-endian words of NewLUT(t, f).Table to
// dst without building the LUT: the bytes whose SHA-256 keys a compiled
// table wherever it is shared, whichever function value produced it.
func AppendTable(dst []byte, t uint64, f func(x int64) int64) []byte {
	tm := ring.NewModulus(t)
	for k := uint64(0); k < t; k++ {
		dst = binary.LittleEndian.AppendUint64(dst, tm.ReduceInt64(f(tm.Centered(k))))
	}
	return dst
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
	g := l.powerSums(tm)
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

// powerSums returns g_j = Σ_{k≠0} LUT(k)·k^j for j = 0 … t−2: writing
// k = γ^a for a generator γ, g_j = Σ_a u_a·(γ^j)^a is the cyclic DFT of
// u_a = LUT(γ^a), of length n = t − 1 = m·2^s with m odd. Splitting
// a = r + m·a' gives m transforms of length 2^s with root γ^m and a
// twiddled combination,
//
//	g_j = Σ_{r<m} γ^{rj}·U_r[j mod 2^s],   U_r = DFT(u_r, u_{r+m}, u_{r+2m}, …),
//
// O(n log n + m·n) in all.
func (l *LUT) powerSums(tm ring.Modulus) []uint64 {
	n := l.T - 1
	gamma := ring.PrimitiveRoot(l.T)
	s := uint(bits.TrailingZeros64(n))
	m, size := n>>s, uint64(1)<<s

	sub := make([][]uint64, m)
	for r := range sub {
		sub[r] = make([]uint64, size)
	}
	k := uint64(1)
	for a := uint64(0); a < size; a++ {
		for r := range sub {
			sub[r][a] = l.Table[k]
			k = tm.Mul(k, gamma)
		}
	}
	root := tm.Pow(gamma, m)
	for _, u := range sub {
		fftInPlace(u, root, tm)
	}
	if m == 1 {
		return sub[0]
	}
	g := make([]uint64, n)
	w := uint64(1) // γ^j
	for j := range g {
		// Horner in γ^j over r.
		var acc uint64
		for r := len(sub) - 1; r >= 0; r-- {
			acc = tm.Add(tm.Mul(acc, w), sub[r][uint64(j)&(size-1)])
		}
		g[j] = acc
		w = tm.Mul(w, gamma)
	}
	return g
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
