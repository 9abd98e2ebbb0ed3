package lwe

import (
	"fmt"
	"math/bits"

	"athena/internal/ring"
)

// KeySwitchKey switches LWE ciphertexts from the secret skIn (dimension
// NIn, the ring degree after sample extraction) to skOut (dimension
// NOut). This realizes the paper's N -> n degree switch (Section 3.2.2,
// using keyswitching) on extracted samples.
//
// M is one row-major matrix of NIn·Digits rows of NOut+1 words: row
// (j, d) holds the mask A and then the body B of an encryption of
// skIn[j]·Base^d under skOut. That is also the wire order.
type KeySwitchKey struct {
	KeySwitchShape
	Base uint64
	M    []uint64
}

// NewKeySwitchKey generates the switching material at modulus q with the
// given decomposition base, which CheckBase must accept.
func NewKeySwitchKey(skIn, skOut *SecretKey, q, base uint64, sigma float64, seed uint64) *KeySwitchKey {
	if err := CheckBase(q, base); err != nil {
		panic(err.Error())
	}
	digits := Digits(q, base)
	m := ring.NewModulus(q)
	smp := newStream(seed)
	k := &KeySwitchKey{
		KeySwitchShape: KeySwitchShape{NIn: len(skIn.S), NOut: len(skOut.S), Digits: digits, Q: q},
		Base:           base,
	}
	k.M = make([]uint64, 0, k.words())
	for _, sj := range skIn.S {
		pw := uint64(1)
		for d := 0; d < digits; d++ {
			msg := m.Mul(m.ReduceInt64(sj), pw)
			ct := Encrypt(skOut, msg, q, sigma, smp)
			k.M = append(append(k.M, ct.A...), ct.B)
			pw = m.Mul(pw, base)
		}
	}
	return k
}

// words is the length of the key matrix of shape s.
func (s KeySwitchShape) words() int { return s.NIn * s.Digits * (s.NOut + 1) }

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

// CheckBase reports whether the switching kernel is exact for the
// decomposition base at modulus q. Digits are taken by shift and mask,
// so base must be a power of two; and a reduced accumulator plus one
// digit × key-word product must fit a word, so (base−1)(q−1) + q ≤ 2^64.
func CheckBase(q, base uint64) error {
	if base < 2 || base&(base-1) != 0 {
		return fmt.Errorf("lwe: decomposition base %d is not a power of two at least 2", base)
	}
	if q < 2 {
		return fmt.Errorf("lwe: keyswitch modulus %d too small", q)
	}
	hi, lo := bits.Mul64(base-1, q-1)
	if _, carry := bits.Add64(lo, q-1, 0); hi != 0 || carry != 0 {
		return fmt.Errorf("lwe: decomposition base %d at modulus %d overflows a 64-bit accumulator", base, q)
	}
	return nil
}

// Tile is the number of values SwitchExtract switches in one pass over
// the key matrix: each key row comes from memory once per tile, and the
// tile's values reuse it from cache.
const Tile = 4

// Switcher applies a KeySwitchKey. It caches the Barrett constants and
// the fold interval of the key's modulus and owns the kernel's
// accumulators, so it is single-goroutine state: each worker of a
// parallel extraction holds its own. The key itself is only read, so any
// number of Switchers over one key may run concurrently.
type Switcher struct {
	k *KeySwitchKey
	m ring.Modulus

	// fold is how many key rows the accumulators take between two
	// reductions: ⌊(2^64 − q) / ((base − 1)(q − 1))⌋, at least 1 by
	// CheckBase.
	fold uint64

	acc []uint64 // Tile·(NOut+1) unreduced accumulators
	rev []uint64 // SwitchInto's input mask, reduced and reversed
}

// NewSwitcher returns a reusable dimension-switch worker over k.
func (k *KeySwitchKey) NewSwitcher() *Switcher {
	_, step := bits.Mul64(k.Base-1, k.Q-1)
	fold, _ := bits.Div64(0, -k.Q, step)
	return &Switcher{
		k:    k,
		m:    ring.NewModulus(k.Q),
		fold: fold,
		acc:  make([]uint64, Tile*(k.NOut+1)),
	}
}

// Switch converts ct (under skIn, at the key's modulus) to a ciphertext
// under skOut at the same modulus. It is SwitchInto with a fresh output,
// and so the one-value call of the SwitchExtract kernel: the benchmark's
// lwe.keyswitch_us probe prices the kernel through it.
func (s *Switcher) Switch(ct Ciphertext) Ciphertext {
	var out Ciphertext
	s.SwitchInto(ct, &out)
	return out
}

// SwitchInto is Switch writing into a caller-provided ciphertext: out.A
// is grown only when its capacity is below the output dimension, so a
// ciphertext reused across calls is allocation-free after the first. An
// LWE mask is the extraction of coefficient N−1 of the RLWE mask that
// lists it backwards, so the kernel runs on ct.A reduced and reversed.
//
//lint:noalloc
func (s *Switcher) SwitchInto(ct Ciphertext, out *Ciphertext) {
	k := s.k
	if ct.Q != k.Q {
		panic(fmt.Sprintf("lwe: keyswitch modulus mismatch %d vs %d", ct.Q, k.Q))
	}
	if len(ct.A) != k.NIn {
		panic(fmt.Sprintf("lwe: keyswitch dimension mismatch %d vs %d", len(ct.A), k.NIn))
	}
	if cap(s.rev) < k.NIn {
		//lint:prealloc sized once to the input dimension, then reused by every call
		s.rev = make([]uint64, k.NIn)
	}
	rev := s.rev[:k.NIn]
	for j, a := range ct.A {
		rev[k.NIn-1-j] = s.m.Reduce(a)
	}
	idx := [1]int{k.NIn - 1}
	body := [Tile]uint64{s.m.Reduce(ct.B)}
	one := [1]Ciphertext{*out}
	s.tile(rev, idx[:], &body, k.Q, one[:])
	*out = one[0]
}

// SwitchExtract fuses Step ③ of the five-step loop for the coefficients
// idx of rc, an RLWE ciphertext at the key's modulus whose mask words are
// reduced, as SwitchModulus leaves them: out[i] becomes the
// sample extraction of coefficient idx[i] (Algorithm 1), switched to
// dimension NOut and then modulus-switched to q2 — bit for bit what
// SampleExtract, Switch and ModSwitch give in turn. Each value reads its
// negacyclic rotation of rc.A in place, takes its digits by shift and
// mask, and accumulates digit × key-row products unreduced in words:
// one Barrett reduction per output, plus one fold of every accumulator
// each s.fold rows. Values go Tile at a time, sharing every key-row read.
// out[i].A is grown only when its capacity is below NOut.
//
//lint:noalloc
func (s *Switcher) SwitchExtract(rc RLWE, idx []int, q2 uint64, out []Ciphertext) {
	k := s.k
	if rc.Q != k.Q {
		panic(fmt.Sprintf("lwe: keyswitch modulus mismatch %d vs %d", rc.Q, k.Q))
	}
	if len(rc.A) != k.NIn || len(rc.B) != k.NIn {
		panic(fmt.Sprintf("lwe: keyswitch dimension mismatch %d vs %d", len(rc.A), k.NIn))
	}
	if len(out) != len(idx) {
		panic(fmt.Sprintf("lwe: %d outputs for %d indices", len(out), len(idx)))
	}
	if q2 > k.Q {
		panic("lwe: modulus switch must go to a smaller modulus")
	}
	for lo := 0; lo < len(idx); lo += Tile {
		hi := min(lo+Tile, len(idx))
		var body [Tile]uint64
		for v, i := range idx[lo:hi] {
			if i < 0 || i >= k.NIn {
				panic(fmt.Sprintf("lwe: extract index %d out of range", i))
			}
			body[v] = s.m.Reduce(rc.B[i])
		}
		s.tile(rc.A, idx[lo:hi], &body, q2, out[lo:hi])
	}
}

// tile switches the len(idx) ≤ Tile values whose masks are the
// negacyclic rotations of a (reduced, length NIn) at idx and whose
// bodies are body, writing each at modulus q2 into out.
//
//lint:noalloc
func (s *Switcher) tile(a []uint64, idx []int, body *[Tile]uint64, q2 uint64, out []Ciphertext) {
	k := s.k
	w := k.NOut + 1
	acc := s.acc[:len(idx)*w]
	for v := range idx {
		clear(acc[v*w : v*w+k.NOut])
		acc[v*w+k.NOut] = body[v]
	}
	shift := uint(bits.TrailingZeros64(k.Base))
	mask := k.Base - 1
	left := s.fold
	var av [Tile]uint64
	for j := 0; j < k.NIn; j++ {
		// Coefficient j of the extraction at i is a[i−j] for j ≤ i and
		// −a[N+i−j] past it (Algorithm 1).
		for v, i := range idx {
			if p := i - j; p >= 0 {
				av[v] = a[p]
			} else {
				av[v] = s.m.Neg(a[p+k.NIn])
			}
		}
		// Rows (j, 0..Digits−1) are contiguous and are taken two at a
		// time, so each accumulator word is loaded and stored once per
		// two products.
		rows := k.M[j*k.Digits*w : (j+1)*k.Digits*w]
		for d := 0; d < k.Digits; d++ {
			if left == 0 {
				for i, x := range acc {
					acc[i] = s.m.Reduce(x)
				}
				left = s.fold
			}
			left--
			row := rows[d*w : d*w+w]
			sh := uint(d) * shift
			if d+1 < k.Digits && left > 0 {
				left--
				d++
				next := rows[d*w : d*w+w]
				for v := range idx {
					mulAdd2(acc[v*w:v*w+w], row, next, av[v]>>sh&mask, av[v]>>(sh+shift)&mask)
				}
				continue
			}
			for v := range idx {
				mulAdd(acc[v*w:v*w+w], row, av[v]>>sh&mask)
			}
		}
	}
	for v := range idx {
		o := &out[v]
		if cap(o.A) < k.NOut {
			//lint:prealloc sized once to the output dimension when the caller passes no buffer
			o.A = make([]uint64, k.NOut)
		}
		o.A = o.A[:k.NOut]
		src := acc[v*w : v*w+w]
		for i, x := range src[:k.NOut] {
			o.A[i] = s.finish(x, q2)
		}
		o.B = s.finish(src[k.NOut], q2)
		o.Q = q2
	}
}

// finish reduces an accumulator and rescales it from the key's modulus
// to q2 ≤ Q.
//
//lint:noalloc
func (s *Switcher) finish(x, q2 uint64) uint64 {
	x = s.m.Reduce(x)
	if q2 == s.k.Q {
		return x
	}
	return scaleReduced(x, s.k.Q, q2)
}

// mulAdd adds d·row to acc word by word, unreduced.
//
//lint:noalloc
func mulAdd(acc, row []uint64, d uint64) {
	acc = acc[:len(row)]
	for i, x := range row {
		acc[i] = mac(acc[i], d, x)
	}
}

// mulAdd2 adds d·r0 + e·r1 to acc word by word, unreduced.
//
//lint:noalloc
func mulAdd2(acc, r0, r1 []uint64, d, e uint64) {
	acc, r1 = acc[:len(r0)], r1[:len(r0)]
	for i, x := range r0 {
		acc[i] = mac(mac(acc[i], d, x), e, r1[i])
	}
}

// mac returns acc + d·x without reduction, for a digit d < base and a
// key word x < q: CheckBase bounds the product, and the kernel folds its
// accumulators before a sum of products can wrap.
//
//lint:noalloc
func mac(acc, d, x uint64) uint64 {
	return acc + d*x //lint:allow modguard a digit times a key word is bounded by CheckBase, and the kernel folds before the sum wraps
}
