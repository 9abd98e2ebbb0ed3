package lwe

import (
	"fmt"
	"math/bits"

	"athena/internal/ring"
)

// KeySwitchKey switches LWE ciphertexts from the secret skIn (dimension
// N, the ring degree after sample extraction) to skOut (dimension n).
// This realizes the paper's N -> n degree switch (Section 3.2.2, using
// keyswitching) on extracted samples. Component [j][d] encrypts
// skIn[j]·base^d under skOut.
type KeySwitchKey struct {
	Keys   [][]Ciphertext
	Base   uint64
	Digits int
	Q      uint64
}

// NewKeySwitchKey generates the switching material at modulus q with the
// given decomposition base.
func NewKeySwitchKey(skIn, skOut *SecretKey, q, base uint64, sigma float64, seed uint64) *KeySwitchKey {
	if base < 2 {
		panic("lwe: decomposition base must be at least 2")
	}
	digits := Digits(q, base)
	m := ring.NewModulus(q)
	smp := newStream(seed)
	k := &KeySwitchKey{
		Keys:   make([][]Ciphertext, len(skIn.S)),
		Base:   base,
		Digits: digits,
		Q:      q,
	}
	for j, sj := range skIn.S {
		k.Keys[j] = make([]Ciphertext, digits)
		pw := uint64(1)
		for d := 0; d < digits; d++ {
			msg := m.Mul(m.ReduceInt64(sj), pw)
			k.Keys[j][d] = Encrypt(skOut, msg, q, sigma, smp)
			pw = m.Mul(pw, base)
		}
	}
	return k
}

// Digits returns the digit count of a base-base decomposition of residues
// mod q (base ≥ 2): the number of components per input coefficient.
func Digits(q, base uint64) int {
	digits := 0
	for pw := uint64(1); pw < q; {
		digits++
		hi, lo := bits.Mul64(pw, base)
		if hi != 0 { // next power overflows uint64, so it already covers q
			break
		}
		pw = lo
	}
	return digits
}

// Switch converts ct (under skIn) to a ciphertext under skOut. The
// moduli must match. Each call rederives the Barrett constants of Q;
// loops over many extractions should hold a Switcher instead.
func (k *KeySwitchKey) Switch(ct Ciphertext) Ciphertext {
	return k.NewSwitcher().Switch(ct)
}

// Switcher is the per-worker handle for applying a KeySwitchKey in
// parallel extraction loops: it caches the Barrett constants of the
// switching modulus (which Switch would otherwise rederive per
// ciphertext). The underlying key material is read-only, so any number
// of Switchers over one key may run concurrently.
type Switcher struct {
	k *KeySwitchKey
	m ring.Modulus
}

// NewSwitcher returns a reusable dimension-switch worker over k.
func (k *KeySwitchKey) NewSwitcher() *Switcher {
	return &Switcher{k: k, m: ring.NewModulus(k.Q)}
}

// Switch converts ct (under skIn) to a ciphertext under skOut.
func (s *Switcher) Switch(ct Ciphertext) Ciphertext {
	var out Ciphertext
	s.SwitchInto(ct, &out)
	return out
}

// SwitchInto is Switch writing into a caller-provided ciphertext:
// out.A is grown only when its capacity is below the output dimension,
// so a ciphertext reused across an extraction batch is allocation-free
// after the first call. out must not share backing storage with ct.
//
//lint:noalloc
func (s *Switcher) SwitchInto(ct Ciphertext, out *Ciphertext) {
	k := s.k
	if ct.Q != k.Q {
		panic(fmt.Sprintf("lwe: keyswitch modulus mismatch %d vs %d", ct.Q, k.Q))
	}
	if len(ct.A) != len(k.Keys) {
		panic(fmt.Sprintf("lwe: keyswitch dimension mismatch %d vs %d", len(ct.A), len(k.Keys)))
	}
	m := s.m
	nOut := len(k.Keys[0][0].A)
	if cap(out.A) < nOut {
		//lint:prealloc sized once to the output dimension, then reused across the batch
		out.A = make([]uint64, nOut)
	}
	out.A = out.A[:nOut]
	for i := range out.A {
		out.A[i] = 0
	}
	out.B = m.Reduce(ct.B)
	out.Q = k.Q
	for j, aj := range ct.A {
		v := m.Reduce(aj)
		for d := 0; d < k.Digits && v > 0; d++ {
			// Radix decomposition: one Div64 yields digit and quotient
			// (k.Base ≥ 2 is enforced at key generation).
			var dig uint64
			v, dig = bits.Div64(0, v, k.Base)
			if dig == 0 {
				continue
			}
			// The digit is the fixed operand of the whole row: one Shoup
			// precomputation (a single division) amortizes over the n+1
			// key-component products, replacing Barrett in the inner loop.
			sh := m.ShoupPrecomp(dig)
			key := &k.Keys[j][d]
			m.MulShoupAddVec(key.A, dig, sh, out.A)
			out.B = m.Add(out.B, m.MulShoup(key.B, dig, sh))
		}
	}
}
