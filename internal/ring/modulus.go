// Package ring implements arithmetic over the negacyclic polynomial rings
// Z_q[X]/(X^N+1) that underpin the Athena reproduction: 64-bit modular
// arithmetic with Barrett and Shoup reductions, NTT-friendly prime
// generation, forward/inverse negacyclic number-theoretic transforms,
// Galois automorphisms, and the samplers (uniform, ternary, discrete
// Gaussian) required by RLWE-style cryptosystems.
//
// A Ring holds a chain of word-sized prime moduli; a Poly stores one
// residue polynomial per prime (the RNS representation). All hot-path
// arithmetic stays in uint64; exact cross-limb work (CRT reconstruction,
// scale-and-round) lives in package rns.
package ring

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits bounds the size of a single RNS prime. Keeping primes at
// or below 61 bits leaves headroom so that lazy sums of a few products
// never overflow the 128-bit intermediate in Barrett reduction.
const MaxModulusBits = 61

// Modulus bundles a prime q with the precomputed constants used by
// Barrett and Shoup modular reduction.
type Modulus struct {
	Q uint64 // the prime modulus

	// brc is floor(2^128 / Q) split into high and low 64-bit words,
	// used for 128-bit Barrett reduction.
	brcHi, brcLo uint64
}

// TryNewModulus prepares the reduction constants for q, rejecting q
// outside [2, 2^MaxModulusBits); primality is the caller's concern. This
// is the entry point for moduli read from untrusted wire bytes, where an
// out-of-range value must surface as an error, not a panic.
func TryNewModulus(q uint64) (Modulus, error) {
	if q < 2 {
		return Modulus{}, fmt.Errorf("ring: modulus %d too small", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return Modulus{}, fmt.Errorf("ring: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	// Compute floor(2^128 / q) via long division of 2^128 by q using
	// 64-bit limbs: first divide 2^64 by q, then bring down 64 zero bits.
	hi, r := bits.Div64(1, 0, q) // hi = floor(2^64/q), r = 2^64 mod q
	lo, _ := bits.Div64(r, 0, q) // lo = floor(r·2^64 / q)
	return Modulus{Q: q, brcHi: hi, brcLo: lo}, nil
}

// NewModulus is TryNewModulus for trusted, statically chosen parameters:
// it panics on an out-of-range q. Wire-decoding paths must use
// TryNewModulus instead (enforced by athena-lint's panicfree-wire pass).
func NewModulus(q uint64) Modulus {
	m, err := TryNewModulus(q)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// Add returns a+b mod q for a, b in [0, q).
//
//lint:noalloc
//lint:domain a:<q b:<q -> ret:<q
func (m Modulus) Add(a, b uint64) uint64 {
	c := a + b
	if c >= m.Q {
		c -= m.Q
	}
	return c
}

// Sub returns a-b mod q for a, b in [0, q).
//
//lint:noalloc
//lint:domain a:<q b:<q -> ret:<q
func (m Modulus) Sub(a, b uint64) uint64 {
	c := a - b
	if a < b {
		c += m.Q
	}
	return c
}

// Neg returns -a mod q for a in [0, q).
//
//lint:noalloc
//lint:domain a:<q -> ret:<q
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Reduce maps an arbitrary uint64 into [0, q).
//
//lint:noalloc
//lint:domain a:any -> ret:<q
func (m Modulus) Reduce(a uint64) uint64 {
	return m.ReduceWide(0, a)
}

// ReduceWide reduces the 128-bit value hi·2^64+lo into [0, q) using
// Barrett reduction. Any 128-bit value is accepted, not only products of
// two reduced operands.
//
//lint:noalloc
//lint:domain hi:any lo:any -> ret:<q
func (m Modulus) ReduceWide(hi, lo uint64) uint64 {
	// s ≈ floor(x / q) computed as floor(x · floor(2^128/q) / 2^128),
	// which is floor(x/q) or one less. x·brc is a 256-bit product; only
	// bits [128,192) are formed. For hi ≥ q the quotient exceeds a word,
	// but the remainder x − s·q < 2q is recovered from lo − s·q mod 2^64,
	// which needs s mod 2^64 only.
	ph1, _ := bits.Mul64(lo, m.brcLo)       // contributes only carries
	ph2hi, ph2lo := bits.Mul64(lo, m.brcHi) // shifted by 64
	ph3hi, ph3lo := bits.Mul64(hi, m.brcLo) // shifted by 64
	ph4 := hi * m.brcHi                     // shifted by 128 (low word only)
	mid, c1 := bits.Add64(ph2lo, ph3lo, 0)  // bits [64,128)
	_, c2 := bits.Add64(mid, ph1, 0)        // carry out of [64,128)
	s := ph4 + ph2hi + ph3hi + c1 + c2      // bits [128,192): the quotient estimate
	r := lo - s*m.Q                         // remainder candidate, exact mod 2^64
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// Mul returns a·b mod q for a, b in [0, q).
//
//lint:noalloc
//lint:domain a:<q b:<q -> ret:<q
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.ReduceWide(hi, lo)
}

// ShoupPrecomp returns floor(w·2^64 / q), the Shoup companion word that
// accelerates repeated multiplications by the fixed operand w.
//
//lint:noalloc
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	s, _ := bits.Div64(w, 0, m.Q)
	return s
}

// MulShoup returns a·w mod q given wShoup = ShoupPrecomp(w). Requires
// w < q; a may be ANY uint64 (in particular a lazy representative in
// [0, 4q)): with s = floor(w·2^64/q) the quotient estimate
// floor(a·s/2^64) is off by at most one from floor(a·w/q), so the
// remainder candidate lands in [0, 2q) and one conditional subtraction
// yields the exact canonical residue.
//
//lint:noalloc
//lint:domain a:any w:<q -> ret:<q
func (m Modulus) MulShoup(a, w, wShoup uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	r := a*w - hi*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulShoupLazy is MulShoup without the final conditional subtraction:
// the result is congruent to a·w mod q but lies in [0, 2q). Requires
// w < q; a may be any uint64. This is the butterfly workhorse of the
// lazy-reduction NTT (Longa–Naehrig): skipping the data-dependent
// subtraction removes the branch from the innermost loop.
//
//lint:noalloc
//lint:domain a:any w:<q -> ret:<2q
func (m Modulus) MulShoupLazy(a, w, wShoup uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	return a*w - hi*m.Q
}

// AddLazy returns a+b with no reduction. The caller is responsible for
// the headroom invariant: with q ≤ 2^MaxModulusBits, sums of two lazy
// values in [0, 2q) stay below 2^63 and never wrap.
//
//lint:noalloc
//lint:domain a:<2q b:<2q -> ret:<4q
func (m Modulus) AddLazy(a, b uint64) uint64 { return a + b }

// SubLazy2Q returns a−b+2q, the lazy subtraction for operands in
// [0, 2q): the +2q offset keeps the result non-negative (in [0, 4q))
// without a data-dependent branch.
//
//lint:noalloc
//lint:domain a:<2q b:<2q -> ret:<4q
func (m Modulus) SubLazy2Q(a, b uint64) uint64 { return a + 2*m.Q - b }

// Reduce2Q folds a value in [0, 2q) into [0, q), branchlessly.
//
//lint:noalloc
//lint:domain a:<2q -> ret:<q
func (m Modulus) Reduce2Q(a uint64) uint64 {
	c := a - m.Q
	return c + (m.Q & uint64(int64(c)>>63))
}

// Reduce4Q folds a value in [0, 4q) into [0, q).
//
//lint:noalloc
//lint:domain a:<4q -> ret:<q
func (m Modulus) Reduce4Q(a uint64) uint64 {
	c := a - 2*m.Q
	a = c + ((2 * m.Q) & uint64(int64(c)>>63))
	c = a - m.Q
	return c + (m.Q & uint64(int64(c)>>63))
}

// Pow returns a^e mod q by square-and-multiply.
//
//lint:noalloc
func (m Modulus) Pow(a, e uint64) uint64 {
	r := uint64(1)
	a %= m.Q
	for e > 0 {
		if e&1 == 1 {
			r = m.Mul(r, a)
		}
		a = m.Mul(a, a)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse of a mod q. It requires q prime
// and a nonzero mod q, and panics otherwise.
//
//lint:noalloc
func (m Modulus) Inv(a uint64) uint64 {
	a %= m.Q
	if a == 0 {
		panic("ring: inverse of zero")
	}
	// Fermat: a^(q-2) mod q.
	inv := m.Pow(a, m.Q-2)
	if m.Mul(inv, a) != 1 {
		panic(fmt.Sprintf("ring: %d has no inverse mod %d (modulus not prime?)", a, m.Q))
	}
	return inv
}

// ReduceInt64 maps a signed value into [0, q), interpreting negative
// values as their residue.
//
//lint:noalloc
func (m Modulus) ReduceInt64(a int64) uint64 {
	r := a % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}

// Centered maps a residue in [0, q) to its centered representative in
// [-q/2, q/2).
//
//lint:noalloc
func (m Modulus) Centered(a uint64) int64 {
	if a >= m.Q/2+m.Q%2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}
