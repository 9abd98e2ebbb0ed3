package ring

import (
	"fmt"

	"athena/internal/par"
)

// Ring is the RNS polynomial ring Z_Q[X]/(X^N+1) with Q the product of a
// chain of word-sized NTT-friendly primes. All per-limb tables are
// precomputed at construction.
type Ring struct {
	N      int
	LogN   int
	Moduli []Modulus
	Tables []*NTTTable
}

// NewRing builds a ring of degree N = 2^logN over the given prime chain.
// Every modulus must be prime and ≡ 1 (mod 2N).
func NewRing(logN int, moduli []uint64) (*Ring, error) {
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("ring: logN %d out of range", logN)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	n := 1 << uint(logN)
	r := &Ring{
		N:      n,
		LogN:   logN,
		Moduli: make([]Modulus, len(moduli)),
		Tables: make([]*NTTTable, len(moduli)),
	}
	seen := make(map[uint64]bool, len(moduli))
	for i, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		if !IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		if (q-1)%uint64(2*n) != 0 {
			return nil, fmt.Errorf("ring: modulus %d is not 1 mod 2N", q)
		}
		r.Moduli[i] = NewModulus(q)
		r.Tables[i] = NewNTTTable(q, logN)
	}
	return r, nil
}

// Level returns the number of RNS limbs.
func (r *Ring) Level() int { return len(r.Moduli) }

// Poly is an RNS polynomial: Coeffs[i][j] is the j-th coefficient modulo
// the i-th prime of the owning ring's chain. Whether the polynomial is in
// coefficient or NTT representation is tracked by the caller (package bfv
// keeps ciphertext polynomials in NTT form by convention).
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial with the ring's limb count.
func (r *Ring) NewPoly() Poly { return r.NewPolyAt(r.Level()) }

// NewPolyAt allocates a zero polynomial over the first limbs moduli of
// the ring's chain.
func (r *Ring) NewPolyAt(limbs int) Poly {
	c := make([][]uint64, limbs)
	backing := make([]uint64, limbs*r.N)
	for i := range c {
		c[i] = backing[i*r.N : (i+1)*r.N : (i+1)*r.N]
	}
	return Poly{Coeffs: c}
}

// Level returns the number of limbs held by p.
func (p Poly) Level() int { return len(p.Coeffs) }

// CopyTo copies p into dst (same shape required).
//
//lint:noalloc
func (p Poly) CopyTo(dst Poly) {
	for i := range p.Coeffs {
		copy(dst.Coeffs[i], p.Coeffs[i])
	}
}

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	c := make([][]uint64, len(p.Coeffs))
	for i := range p.Coeffs {
		c[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return Poly{Coeffs: c}
}

// Equal reports whether p and q hold identical residues.
func (p Poly) Equal(q Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != len(q.Coeffs[i]) {
			return false
		}
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// NTT transforms p in place, limb by limb, into the NTT domain. Limbs are
// independent, so they fan out across CPUs when the total transform work
// is large enough to amortize the fork-join (see par.ForWork).
//
//lint:noalloc
func (r *Ring) NTT(p Poly) {
	tables := r.Tables
	coeffs := p.Coeffs
	if !par.WorthForWork(len(coeffs), r.N*r.LogN) {
		for i := range coeffs {
			tables[i].Forward(coeffs[i])
		}
		return
	}
	//lint:allow noalloc fork-join fan-out allocates its closure once per large transform; the serial branch is the steady noalloc path
	par.ForWork(len(coeffs), r.N*r.LogN, func(i int) {
		tables[i].Forward(coeffs[i])
	})
}

// INTT transforms p in place back to coefficient representation.
//
//lint:noalloc
func (r *Ring) INTT(p Poly) {
	tables := r.Tables
	coeffs := p.Coeffs
	if !par.WorthForWork(len(coeffs), r.N*r.LogN) {
		for i := range coeffs {
			tables[i].Inverse(coeffs[i])
		}
		return
	}
	//lint:allow noalloc fork-join fan-out allocates its closure once per large transform; the serial branch is the steady noalloc path
	par.ForWork(len(coeffs), r.N*r.LogN, func(i int) {
		tables[i].Inverse(coeffs[i])
	})
}

// NTTRows transforms every row of rows in place into the NTT domain
// modulo the limb-th prime of the chain: the limb-th limbs of several
// polynomials, taken together. Rows fan out across CPUs as NTT's limbs
// do.
//
//lint:noalloc
func (r *Ring) NTTRows(limb int, rows [][]uint64) {
	t := r.Tables[limb]
	if !par.WorthForWork(len(rows), r.N*r.LogN) {
		for _, row := range rows {
			t.Forward(row)
		}
		return
	}
	//lint:allow noalloc fork-join fan-out allocates its closure once per large transform; the serial branch is the steady noalloc path
	par.ForWork(len(rows), r.N*r.LogN, func(i int) {
		t.Forward(rows[i])
	})
}

// Add sets out = a + b.
//
//lint:noalloc
func (r *Ring) Add(a, b, out Poly) {
	for i := range a.Coeffs {
		r.Moduli[i].AddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// Sub sets out = a - b.
//
//lint:noalloc
func (r *Ring) Sub(a, b, out Poly) {
	for i := range a.Coeffs {
		r.Moduli[i].SubVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// Neg sets out = -a.
//
//lint:noalloc
func (r *Ring) Neg(a, out Poly) {
	for i := range a.Coeffs {
		r.Moduli[i].NegVec(a.Coeffs[i], out.Coeffs[i])
	}
}

// MulCoeffs sets out = a ⊙ b (pointwise); meaningful when both operands
// are in the NTT domain, where it realizes negacyclic convolution.
//
//lint:noalloc
func (r *Ring) MulCoeffs(a, b, out Poly) {
	moduli := r.Moduli
	if !par.WorthForWork(len(a.Coeffs), r.N) {
		for i := range a.Coeffs {
			moduli[i].MulVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
		return
	}
	//lint:allow noalloc fork-join fan-out allocates its closure once per large transform; the serial branch is the steady noalloc path
	par.ForWork(len(a.Coeffs), r.N, func(i int) {
		moduli[i].MulVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	})
}

// MulCoeffsAndAdd sets out += a ⊙ b (pointwise multiply-accumulate).
//
//lint:noalloc
func (r *Ring) MulCoeffsAndAdd(a, b, out Poly) {
	moduli := r.Moduli
	if !par.WorthForWork(len(a.Coeffs), r.N) {
		for i := range a.Coeffs {
			moduli[i].MulAddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
		return
	}
	//lint:allow noalloc fork-join fan-out allocates its closure once per large transform; the serial branch is the steady noalloc path
	par.ForWork(len(a.Coeffs), r.N, func(i int) {
		moduli[i].MulAddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	})
}

// MulScalarRNS multiplies limb i by scalar s[i] (each already reduced mod
// q_i). Used to apply big-integer constants given in RNS form, e.g. Δ.
//
//lint:noalloc
func (r *Ring) MulScalarRNS(a Poly, s []uint64, out Poly) {
	for i := range a.Coeffs {
		m := r.Moduli[i]
		sh := m.ShoupPrecomp(s[i])
		m.MulShoupVec(a.Coeffs[i], s[i], sh, out.Coeffs[i])
	}
}

// MulPolyNaive computes out = a·b mod (X^N+1) by schoolbook negacyclic
// convolution in the coefficient domain. Quadratic; used by tests as an
// NTT oracle.
func (r *Ring) MulPolyNaive(a, b, out Poly) {
	n := r.N
	for i := range a.Coeffs {
		m := r.Moduli[i]
		ai, bi := a.Coeffs[i], b.Coeffs[i]
		res := make([]uint64, n)
		for x := 0; x < n; x++ {
			if ai[x] == 0 {
				continue
			}
			for y := 0; y < n; y++ {
				p := m.Mul(ai[x], bi[y])
				k := x + y
				if k < n {
					res[k] = m.Add(res[k], p)
				} else {
					res[k-n] = m.Sub(res[k-n], p)
				}
			}
		}
		copy(out.Coeffs[i], res)
	}
}
