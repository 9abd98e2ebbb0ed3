package bfv

import "athena/internal/ring"

// Ciphertext is a BFV ciphertext of degree 1: (C0, C1) with
// C0 + C1·s = Δ·m + e (mod Q). Both polynomials are kept in the NTT
// domain at all times; operations that need the coefficient domain
// (keyswitch decomposition, automorphisms, modulus switching) convert
// internally.
type Ciphertext struct {
	C0, C1 ring.Poly
}

// NewCiphertext allocates a zero ciphertext.
func (c *Context) NewCiphertext() *Ciphertext {
	return &Ciphertext{C0: c.RingQ.NewPoly(), C1: c.RingQ.NewPoly()}
}

// Clone deep-copies the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C0: ct.C0.Clone(), C1: ct.C1.Clone()}
}

// CopyTo copies ct into dst.
//
//lint:noalloc
func (ct *Ciphertext) CopyTo(dst *Ciphertext) {
	ct.C0.CopyTo(dst.C0)
	ct.C1.CopyTo(dst.C1)
}

// half returns C0 (h = 0) or C1, for loops over both polynomials.
//
//lint:noalloc
func (ct *Ciphertext) half(h int) ring.Poly {
	if h == 0 {
		return ct.C0
	}
	return ct.C1
}

// Plaintext is a polynomial over Z_t. Coeffs holds values in [0, t).
type Plaintext struct {
	Coeffs []uint64
}

// NewPlaintext allocates a zero plaintext.
func (c *Context) NewPlaintext() *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, c.N)}
}

// PlaintextMul is a plaintext pre-lifted into the ciphertext ring's NTT
// domain (with centered-mod-t representatives), ready for fast repeated
// PMult.
type PlaintextMul struct {
	Value ring.Poly // NTT domain, ring Q
}
