package lwe

import (
	"fmt"
	"math/bits"

	"athena/internal/ring"
)

// Step ③ runs in the paper's order: one ring-level N → n switch per
// ciphertext, then a strided gather per value (Chen, Dai, Kim and Song,
// "Efficient homomorphic conversion between (ring) LWE ciphertexts",
// eprint 2020/015, as used by Pegasus). The LWE secret z is embedded in
// the ring as s′(X) = z(X^{N/n}); coefficient i of a ring ciphertext
// under s′ is then an n-dimensional LWE ciphertext under z, whose mask
// word k is the mask's coefficient (i − k·N/n) mod N, negated where the
// index wraps.

// prime is the NTT prime P the digit × key products are taken at: they
// are exact over the integers while 2·N·Digits·(Base − 1)·(Q − 1) < P,
// so the centred lift mod P is the integer sum, reduced mod Q
// afterwards. P = 1 048 570·2^40 + 1 is the largest 60-bit prime
// ≡ 1 (mod 2^40): it serves every ring degree, and P − 1 factors at
// once, so its NTT's root of unity costs no search.
const prime = 0xffffa0000000001

// SwitchPlan is the key-independent half of the switch: the ring degree
// N, the LWE dimension, the modulus Q and its base-Base decomposition,
// and the negacyclic NTT at P. It is built once per parameter set and
// only read afterwards, so any number of keys and Switchers may share it.
type SwitchPlan struct {
	N, Dim, Digits int
	Q, Base        uint64

	qm  ring.Modulus
	ntt *ring.NTTTable // at P
}

// NewSwitchPlan checks that the switch from degree 2^logN to dimension
// dim at modulus q is exact for the decomposition base — a power of two
// with 2·N·digits·(base − 1)·(q − 1) < P — and builds its NTT.
func NewSwitchPlan(logN, dim int, q, base uint64) (*SwitchPlan, error) {
	if base < 2 || base&(base-1) != 0 {
		return nil, fmt.Errorf("lwe: keyswitch base %d is not a power of two at least 2", base)
	}
	qm, err := ring.TryNewModulus(q)
	if err != nil {
		return nil, fmt.Errorf("lwe: keyswitch modulus: %w", err)
	}
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("lwe: ring degree 2^%d out of range [2, 2^17]", logN)
	}
	n := 1 << logN
	if dim < 1 || n%dim != 0 {
		return nil, fmt.Errorf("lwe: LWE dimension %d does not divide the ring degree %d", dim, n)
	}
	sp := &SwitchPlan{N: n, Dim: dim, Digits: digitCount(q, base), Q: q, Base: base, qm: qm}
	over, span := bits.Mul64(uint64(2*n*sp.Digits), base-1)
	hi, lo := bits.Mul64(span, q-1)
	if over != 0 || hi != 0 || lo >= prime {
		return nil, fmt.Errorf("lwe: keyswitch base %d at modulus %d: 2·N·digits·(base−1)·(q−1) is not below the prime %d", base, q, uint64(prime))
	}
	sp.ntt = ring.NewNTTTable(prime, logN)
	return sp, nil
}

// digitCount returns the digit count of a base-base decomposition of
// residues mod q (base ≥ 2): the number of key pairs.
func digitCount(q, base uint64) int {
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

// KeySwitchKey switches a ring ciphertext at Q from the ring secret s to
// s′. Digit d is the pair (B_d, A_d) with B_d + A_d·s′ = Base^d·s + e_d
// (mod Q), where A_d is row (d, 0) of the key's public Seed
// (ring.RowStream): the key travels as its seed and its B_d. One
// allocation holds the pairs (mod Q, B_d then A_d by digit), then their
// NTT images at P, which nttB and nttA list by digit.
type KeySwitchKey struct {
	*SwitchPlan
	Seed       [32]byte
	w          []uint64
	nttB, nttA [][]uint64
}

// words is the length of one of the key's two forms.
func (sp *SwitchPlan) words() int { return 2 * sp.Digits * sp.N }

func (sp *SwitchPlan) newKey() *KeySwitchKey {
	return &KeySwitchKey{SwitchPlan: sp, w: make([]uint64, 2*sp.words())}
}

// maskTweak keys the stream the key's public mask seed is drawn from,
// apart from the secret stream of its errors.
const maskTweak = 0xbb67ae8584caa73b

// NewKey generates the key from s (the ring secret's coefficients) to the
// embedding of z, with Gaussian errors of width sigma.
func (sp *SwitchPlan) NewKey(s, z *SecretKey, sigma float64, seed uint64) *KeySwitchKey {
	if len(s.S) != sp.N || len(z.S) != sp.Dim {
		panic(fmt.Sprintf("lwe: keyswitch secrets of dimensions %d and %d, plan switches %d → %d", len(s.S), len(z.S), sp.N, sp.Dim))
	}
	k := sp.newKey()
	smp := newStream(seed)
	k.Seed = ring.NewKeystreamTweaked(seed, maskTweak).Seed32()
	k.expand(ring.NewRowStream(nil))
	sz := make([]uint64, sp.N) // s′ in the NTT domain at P
	for i, v := range z.S {
		sz[i*(sp.N/sp.Dim)] = sp.ntt.M.ReduceInt64(v)
	}
	sp.ntt.Forward(sz)
	pw := uint64(1)
	for d := 0; d < sp.Digits; d++ {
		sp.encryptPair(k.w[2*d*sp.N:(2*d+2)*sp.N], s.S, pw, sz, sigma, smp)
		pw = sp.qm.Mul(pw, sp.Base)
	}
	k.precompute()
	return k
}

// encryptPair writes B = pw·s + e − A·s′ into pair, whose A is already
// expanded. A·s′ is exact at P (its coefficients are below Dim·Q < P/2),
// so it costs two NTTs rather than an N·n loop.
func (sp *SwitchPlan) encryptPair(pair []uint64, s []int64, pw uint64, sz []uint64, sigma float64, smp *Stream) {
	b, a := pair[:sp.N], pair[sp.N:]
	copy(b, a)
	sp.ntt.Forward(b)
	sp.ntt.M.MulVec(b, sz, b)
	sp.ntt.Inverse(b)
	m := sp.qm
	for i, as := range b {
		msg := m.Add(m.Mul(pw, m.ReduceInt64(s[i])), m.ReduceInt64(smp.Gaussian(sigma)))
		b[i] = m.Sub(msg, sp.lift(as))
	}
}

// expand fills every A_d with row (d, 0) of the key's seed.
func (k *KeySwitchKey) expand(rows *ring.RowStream) {
	for d := 0; d < k.Digits; d++ {
		rows.Row(&k.Seed, d, 0)
		rows.UniformRow(k.w[(2*d+1)*k.N:(2*d+2)*k.N], k.Q)
	}
}

// precompute derives the NTT images from the wire form.
func (k *KeySwitchKey) precompute() {
	m, n := k.words(), k.N
	copy(k.w[m:], k.w[:m])
	k.nttB, k.nttA = make([][]uint64, k.Digits), make([][]uint64, k.Digits)
	for d := range k.nttB {
		b, a := m+2*d*n, m+(2*d+1)*n
		k.nttB[d], k.nttA[d] = k.w[b:b+n:b+n], k.w[a:a+n:a+n]
		k.ntt.Forward(k.nttB[d])
		k.ntt.Forward(k.nttA[d])
	}
}

// lift maps x mod P to its centred representative, reduced mod Q.
//
//lint:noalloc
func (sp *SwitchPlan) lift(x uint64) uint64 {
	if p := sp.ntt.M.Q; x > p/2 {
		return sp.qm.Neg(sp.qm.Reduce(p - x))
	}
	return sp.qm.Reduce(x)
}

// NewKeySwitchKey generates a key from skIn (dimension N, a power of two)
// to skOut under a plan of its own. It serves the bench/ probe kit, until
// its lwe.keyswitch_us probe moves; the engine generates through the
// plan it builds once per parameter set.
func NewKeySwitchKey(skIn, skOut *SecretKey, q, base uint64, sigma float64, seed uint64) *KeySwitchKey {
	sp, err := NewSwitchPlan(bits.Len(uint(len(skIn.S)))-1, len(skOut.S), q, base)
	if err != nil {
		panic(err.Error())
	}
	return sp.NewKey(skIn, skOut, sigma, seed)
}

// Switcher is one worker's staging of Step ③: In, the ring ciphertext at
// Q that Step ② writes, then the two outputs and every digit polynomial
// at P, all in one allocation. It is single-goroutine state: each worker
// holds its own, over a key that is only read.
type Switcher struct {
	k          *KeySwitchKey
	In         RLWE
	accA, accB []uint64
	dig        [][]uint64
}

// NewSwitcher returns a switcher over k.
func (k *KeySwitchKey) NewSwitcher() *Switcher {
	n := k.N
	w := make([]uint64, (4+k.Digits)*n)
	s := &Switcher{
		k:    k,
		In:   RLWE{A: w[:n:n], B: w[n : 2*n : 2*n], Q: k.Q},
		accA: w[2*n : 3*n : 3*n],
		accB: w[3*n : 4*n : 4*n],
		dig:  make([][]uint64, k.Digits),
	}
	for d := range s.dig {
		s.dig[d] = w[(4+d)*n : (5+d)*n : (5+d)*n]
	}
	return s
}

// Switch switches one LWE ciphertext of dimension N under s at the key's
// modulus to dimension n under z at the same modulus. ct is the
// extraction of coefficient N − 1 of the ring ciphertext whose mask lists
// ct.A backwards, so this is one ring switch and one gather. It allocates
// its result and serves only the bench/ probe kit's lwe.keyswitch_us.
func (s *Switcher) Switch(ct Ciphertext) Ciphertext {
	k := s.k
	if ct.Q != k.Q || len(ct.A) != k.N {
		panic(fmt.Sprintf("lwe: keyswitch of a dimension-%d ciphertext mod %d, key is %d mod %d", len(ct.A), ct.Q, k.N, k.Q))
	}
	clear(s.In.B)
	for j, a := range ct.A {
		s.In.A[k.N-1-j] = k.qm.Reduce(a)
	}
	s.In.B[k.N-1] = k.qm.Reduce(ct.B)
	out := make([]Ciphertext, 1)
	s.SwitchExtract(s.In, []int{k.N - 1}, k.Q, out)
	return out[0]
}

// SwitchExtract is Step ③ on rc, a ring ciphertext under s at the key's
// modulus with reduced words, as SwitchModulus leaves them: one switch to
// s′ (Digits forward NTTs of rc.A's digit polynomials, one lazy inner
// product of the digits with the key's pairs and two inverse NTTs at P),
// one modulus switch of each coefficient to q2 ≤ Q, then out[v] is
// coefficient idx[v] as an LWE ciphertext under z, gathered by copy and
// negation. out[v].A is grown only when its capacity is below n.
//
//lint:noalloc
func (s *Switcher) SwitchExtract(rc RLWE, idx []int, q2 uint64, out []Ciphertext) {
	k := s.k
	if rc.Q != k.Q || len(rc.A) != k.N || len(rc.B) != k.N {
		panic(fmt.Sprintf("lwe: keyswitch of a degree-%d ciphertext mod %d, key is %d mod %d", len(rc.A), rc.Q, k.N, k.Q))
	}
	if len(out) != len(idx) {
		panic(fmt.Sprintf("lwe: %d outputs for %d indices", len(out), len(idx)))
	}
	if q2 > k.Q {
		panic("lwe: modulus switch must go to a smaller modulus")
	}
	for _, i := range idx {
		if i < 0 || i >= k.N {
			panic(fmt.Sprintf("lwe: extract index %d out of range", i))
		}
	}
	s.switchRing(rc, q2)
	step := k.N / k.Dim
	for v, i := range idx {
		o := &out[v]
		if cap(o.A) < k.Dim {
			//lint:prealloc sized once to the output dimension when the caller passes no buffer
			o.A = make([]uint64, k.Dim)
		}
		o.A = o.A[:k.Dim]
		for j := range o.A {
			if p := i - j*step; p >= 0 {
				o.A[j] = s.accA[p]
			} else if x := s.accA[p+k.N]; x != 0 {
				o.A[j] = q2 - x
			} else {
				o.A[j] = 0
			}
		}
		o.B, o.Q = s.accB[i], q2
	}
}

// switchRing leaves the switch of rc in accA (mask) and accB (body),
// each coefficient at q2.
//
//lint:noalloc
func (s *Switcher) switchRing(rc RLWE, q2 uint64) {
	k := s.k
	shift := uint(bits.TrailingZeros64(k.Base))
	for d, dig := range s.dig {
		for i, a := range rc.A {
			dig[i] = a >> (uint(d) * shift) & (k.Base - 1)
		}
		k.ntt.Forward(dig)
	}
	k.ntt.M.MulSumPairVec(s.dig, k.nttB, k.nttA, s.accB, s.accA)
	k.ntt.Inverse(s.accA)
	k.ntt.Inverse(s.accB)
	for i := range s.accA {
		s.accA[i] = k.rescale(k.lift(s.accA[i]), q2)
		s.accB[i] = k.rescale(k.qm.Add(k.qm.Reduce(rc.B[i]), k.lift(s.accB[i])), q2)
	}
}

// rescale switches x mod Q to q2 ≤ Q.
//
//lint:noalloc
func (sp *SwitchPlan) rescale(x, q2 uint64) uint64 {
	if q2 == sp.Q {
		return x
	}
	return scaleReduced(x, sp.Q, q2)
}
