// Package lwe implements the LWE side of the Athena framework's
// ciphertext conversion (Steps ②-③ of the five-step loop): the switch
// from the ring degree N down to the LWE dimension n, made once per RLWE
// ciphertext before extraction, sample extraction of individual
// coefficients into LWE ciphertexts (Alg. 1 of the paper), and LWE
// modulus switching.
//
// All LWE ciphertexts here live under a single word-sized modulus; the
// phase convention is b + <a, s> = m + e (mod q).
package lwe

import (
	"fmt"
	"math/bits"

	"athena/internal/ring"
)

// Ciphertext is an LWE ciphertext (a, b) with b + <a,s> = m + e (mod Q).
type Ciphertext struct {
	A []uint64
	B uint64
	Q uint64
}

// SecretKey is a signed (ternary) LWE secret.
type SecretKey struct {
	S []int64
}

// NewSecretKey samples a ternary LWE secret of dimension n.
func NewSecretKey(n int, seed uint64) *SecretKey {
	s := make([]int64, n)
	smp := newStream(seed)
	for i := range s {
		s[i] = int64(smp.IntN(3)) - 1
	}
	return &SecretKey{S: s}
}

// Dim returns the LWE dimension.
func (sk *SecretKey) Dim() int { return len(sk.S) }

// Decrypt returns the phase b + <a,s> mod q (message plus noise). The
// caller rounds according to its own plaintext embedding.
func (sk *SecretKey) Decrypt(ct Ciphertext) uint64 {
	if len(ct.A) != len(sk.S) {
		panic(fmt.Sprintf("lwe: dimension mismatch %d vs %d", len(ct.A), len(sk.S)))
	}
	m := ring.NewModulus(ct.Q)
	acc := m.Reduce(ct.B)
	for i, a := range ct.A {
		s := sk.S[i]
		if s == 0 {
			continue
		}
		av := m.Reduce(a)
		if s > 0 {
			acc = m.Add(acc, av)
		} else {
			acc = m.Sub(acc, av)
		}
	}
	return acc
}

// Encrypt produces a fresh LWE encryption of message m (already embedded
// in Z_q) with Gaussian noise sigma. Used by tests and by keyswitching
// key generation.
func Encrypt(sk *SecretKey, msg uint64, q uint64, sigma float64, smp *Stream) Ciphertext {
	m := ring.NewModulus(q)
	ct := Ciphertext{A: make([]uint64, len(sk.S)), Q: q}
	phaseA := uint64(0)
	for i := range ct.A {
		ct.A[i] = smp.Uint64N(q)
		s := sk.S[i]
		if s > 0 {
			phaseA = m.Add(phaseA, ct.A[i])
		} else if s < 0 {
			phaseA = m.Sub(phaseA, ct.A[i])
		}
	}
	e := smp.Gaussian(sigma)
	ct.B = m.Sub(m.Add(m.Reduce(msg), m.ReduceInt64(e)), phaseA)
	return ct
}

// RLWE is an RLWE ciphertext under a single word-sized modulus in the
// coefficient domain, the output of modulus switching from Q. The phase
// convention matches bfv: B + A·s = m + e (mod Q), with A playing the
// role of c1 and B of c0.
type RLWE struct {
	A, B []uint64
	Q    uint64
}

// SampleExtract converts the RLWE ciphertext into LWE ciphertexts for the
// requested coefficient indices (Algorithm 1 of the paper; all N when
// indices is nil). The LWE secret is the RLWE secret's coefficient
// vector.
func SampleExtract(rc RLWE, indices []int) []Ciphertext {
	n := len(rc.A)
	m := ring.NewModulus(rc.Q)
	if indices == nil {
		indices = make([]int, n)
		for i := range indices {
			indices[i] = i
		}
	}
	out := make([]Ciphertext, len(indices))
	for k, i := range indices {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("lwe: extract index %d out of range", i))
		}
		a := make([]uint64, n)
		for j := 0; j < n; j++ {
			if j <= i {
				a[j] = rc.A[i-j]
			} else {
				a[j] = m.Neg(rc.A[n+i-j])
			}
		}
		out[k] = Ciphertext{A: a, B: rc.B[i], Q: rc.Q}
	}
	return out
}

// ModSwitch rescales ct from its modulus to q2: each component is mapped
// to round(x·q2/q). The message embedding must be scale-free (phase
// directly carries m), as it is throughout the Athena loop after the
// RLWE modulus switch to t·2^k.
func ModSwitch(ct Ciphertext, q2 uint64) Ciphertext {
	out := Ciphertext{A: make([]uint64, len(ct.A)), Q: q2}
	for i, a := range ct.A {
		out.A[i] = scaleRound(a, ct.Q, q2)
	}
	out.B = scaleRound(ct.B, ct.Q, q2)
	return out
}

// scaleRound computes round(x·q2/q1) mod q2 using 128-bit arithmetic.
// It requires q2 ≤ q1 (Athena only ever switches downward). q1 may
// exceed the 61-bit ring.Modulus bound, so the reductions go through
// bits.Div64 rather than Barrett helpers.
func scaleRound(x, q1, q2 uint64) uint64 {
	if q2 > q1 {
		panic("lwe: modulus switch must go to a smaller modulus")
	}
	_, xr := bits.Div64(0, x, q1) // x mod q1
	return scaleReduced(xr, q1, q2)
}

// scaleReduced is scaleRound for x < q1 and q2 ≤ q1.
//
//lint:noalloc
func scaleReduced(x, q1, q2 uint64) uint64 {
	hi, lo := bits.Mul64(x, q2)
	// round(v/q1) = floor((v + q1/2) / q1)
	lo2, carry := bits.Add64(lo, q1/2, 0)
	hi += carry
	q, _ := bits.Div64(hi, lo2, q1)
	// x < q1 implies q = round(x·q2/q1) ≤ q2: one conditional
	// subtraction wraps the boundary case to 0.
	if q >= q2 {
		q -= q2
	}
	return q
}
