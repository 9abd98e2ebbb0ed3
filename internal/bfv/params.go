// Package bfv implements the Brakerski/Fan-Vercauteren scheme over the
// RNS rings of package ring: exact integer homomorphic encryption with
// plaintext space Z_t[X]/(X^N+1). It provides the operations the Athena
// framework needs — homomorphic addition, plaintext and scalar
// multiplication, ciphertext-ciphertext multiplication with
// relinearization, Galois automorphisms (slot rotations), batching, and
// modulus switching. Every rescale is exact, so results are bit-identical
// to the plaintext computation: ciphertext multiplication runs the
// word-sized RNS kernels of package rns (base conversion into an
// extension basis B, t/Q scale-and-round, conversion back), while
// decryption, modulus switching and ModDown, which run once per
// ciphertext rather than once per FBS ladder step, keep the big-integer
// forms that define them.
//
// A multiplication is three steps a caller may also drive itself
// (mul.go): ExtendInto lifts a ciphertext to the extended basis once for
// every product it enters, Accumulate adds a product to an unreduced sum
// of up to Context.SumCapacity terms, and FinishInto rescales and
// relinearizes the whole sum once. Mul and MulInto are the one-term case.
package bfv

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"athena/internal/ring"
	"athena/internal/rns"
)

// Parameters fixes a BFV instance. T must be prime; batching additionally
// requires T ≡ 1 (mod 2N).
type Parameters struct {
	LogN  int      // ring degree N = 2^LogN
	Qi    []uint64 // ciphertext modulus chain (NTT-friendly primes)
	T     uint64   // plaintext modulus
	Sigma float64  // error standard deviation
}

// Context carries the precomputed state for a parameter set. It is
// immutable after construction and safe for concurrent use.
type Context struct {
	Params Parameters

	N     int
	RingQ *ring.Ring // ciphertext ring, modulus Q
	RingT *ring.Ring // plaintext ring, modulus t (single limb)

	BasisQ  *rns.Basis
	TMod    ring.Modulus
	Delta   *big.Int // floor(Q/t)
	DeltaQi []uint64 // Δ mod q_i
	TBig    *big.Int
	QBig    *big.Int

	// Tensor-product machinery: an extension basis B of 59-bit primes
	// disjoint from Q with B > t·N·Q + 2, so that a tensor product does
	// not wrap modulo Q·B and its t/Q rescale is centered modulo B; the
	// conversions Q → B and B → Q; the scaling from Q ∪ B into B; and how
	// many tensor products this B lets one Accumulator sum (SumCapacity).
	RingB    *ring.Ring
	toB, toQ *rns.Converter
	scale    *rns.Scaler
	sumCap   int

	// Keyswitch digit constants: digit i of the CRT decomposition is
	// multiplied by ksDigitInv[i] (Shoup companion alongside). At the
	// chain's own level these are the basis QiHatInv; reduced-level
	// children built by AtLevel override them with the correction that
	// accounts for key material generated over the full chain.
	ksDigitInv      []uint64
	ksDigitInvShoup []uint64

	// Reduced-level contexts derived by AtLevel, built once on demand.
	levelMu    sync.Mutex
	levelCache []*Context

	batching bool
	slotIdx  []int // slot i lives at plaintext coefficient slotIdx[i]
}

// NewContext validates params and precomputes every table.
func NewContext(p Parameters) (*Context, error) {
	if p.LogN < 2 || p.LogN > 16 {
		return nil, fmt.Errorf("bfv: logN %d out of range", p.LogN)
	}
	if p.Sigma <= 0 {
		p.Sigma = ring.DefaultSigma
	}
	if !ring.IsPrime(p.T) {
		return nil, fmt.Errorf("bfv: plaintext modulus %d must be prime", p.T)
	}
	rq, err := ring.NewRing(p.LogN, p.Qi)
	if err != nil {
		return nil, fmt.Errorf("bfv: ciphertext ring: %w", err)
	}
	c := &Context{
		Params: p,
		N:      rq.N,
		RingQ:  rq,
		BasisQ: rns.NewBasis(p.Qi),
		TMod:   ring.NewModulus(p.T),
		TBig:   new(big.Int).SetUint64(p.T),
	}
	c.QBig = c.BasisQ.Q
	c.Delta = new(big.Int).Div(c.QBig, c.TBig)
	c.DeltaQi = c.BasisQ.ScalarMod(c.Delta)

	// At the chain's own level the keyswitch digit constants are exactly
	// the CRT inverses; AtLevel children replace them (see level.go).
	c.ksDigitInv = append([]uint64(nil), c.BasisQ.QiHatInv...)
	c.ksDigitInvShoup = make([]uint64, len(c.ksDigitInv))
	for i, m := range c.BasisQ.Moduli {
		c.ksDigitInvShoup[i] = m.ShoupPrecomp(c.ksDigitInv[i])
	}

	if err := c.buildTensor(); err != nil {
		return nil, err
	}

	// Batching requires t ≡ 1 (mod 2N) so Z_t[X]/(X^N+1) splits fully;
	// 2N is a power of two, so the congruence is a mask test.
	if (p.T-1)&uint64(2*c.N-1) == 0 {
		c.batching = true
		rt, err := ring.NewRing(p.LogN, []uint64{p.T})
		if err != nil {
			return nil, fmt.Errorf("bfv: plaintext ring: %w", err)
		}
		c.RingT = rt
		c.slotIdx = buildSlotIndex(c.N, p.LogN)
	}
	return c, nil
}

// buildTensor picks the extension basis B and precomputes the three
// word-sized kernels of a ciphertext multiplication (mul.go). Operands
// are centered modulo Q, so a coefficient x of a tensor product has
// |x| ≤ 2·N·((Q−1)/2)², and |round(t·x/Q)| ≤ (t·N·Q + 1)/2: the rescaled
// value is its own centered representative modulo B exactly when
// B > t·N·Q + 2, which is what the conversion back to Q needs (and more
// than the B > N·Q that keeps x itself from wrapping modulo Q·B).
func (c *Context) buildTensor() error {
	p := c.Params
	bound := new(big.Int).Mul(c.QBig, new(big.Int).SetUint64(p.T))
	bound.Lsh(bound, uint(p.LogN)).Add(bound, big.NewInt(2))
	// A 59-bit prime exceeds 2^58, and up to len(Qi) candidates may be
	// taken by the chain itself.
	cand, err := ring.GenerateNTTPrimes(59, p.LogN, bound.BitLen()/58+1+len(p.Qi))
	if err != nil {
		return fmt.Errorf("bfv: tensor primes: %w", err)
	}
	used := make(map[uint64]bool, len(p.Qi))
	for _, q := range p.Qi {
		used[q] = true
	}
	var bi []uint64
	prod := big.NewInt(1)
	for _, q := range cand {
		if prod.Cmp(bound) > 0 {
			break
		}
		if !used[q] {
			bi = append(bi, q)
			prod.Mul(prod, new(big.Int).SetUint64(q))
		}
	}
	if prod.Cmp(bound) <= 0 {
		return fmt.Errorf("bfv: tensor basis of %d bits violates B > t·N·Q + 2 (%d bits)", prod.BitLen(), bound.BitLen())
	}
	// SumCapacity = ⌊(B − 2)/(t·N·Q + 1)⌋, and bound − 1 = t·N·Q + 1. The
	// primes are taken whole, so B may clear the bound by up to 58 bits.
	c.sumCap = math.MaxInt
	prod.Sub(prod, big.NewInt(2)).Div(prod, bound.Sub(bound, big.NewInt(1)))
	if prod.IsInt64() && prod.Int64() < math.MaxInt {
		c.sumCap = int(prod.Int64())
	}
	if c.RingB, err = ring.NewRing(p.LogN, bi); err != nil {
		return fmt.Errorf("bfv: tensor ring: %w", err)
	}
	basisB := rns.NewBasis(bi)
	if c.toB, err = rns.NewConverter(c.BasisQ, basisB); err != nil {
		return fmt.Errorf("bfv: %w", err)
	}
	if c.toQ, err = rns.NewConverter(basisB, c.BasisQ); err != nil {
		return fmt.Errorf("bfv: %w", err)
	}
	if c.scale, err = rns.NewScaler(c.BasisQ, basisB, p.T); err != nil {
		return fmt.Errorf("bfv: %w", err)
	}
	return nil
}

// buildSlotIndex maps slot positions to plaintext NTT positions following
// the standard two-row hypercube layout: row 0 holds slots 0..N/2-1 at
// the orbit of the evaluation point under X -> X^5, row 1 its conjugates.
func buildSlotIndex(n, logN int) []int {
	idx := make([]int, n)
	m := uint64(n) << 1
	rowSize := n >> 1
	pos := uint64(1)
	for i := 0; i < rowSize; i++ {
		index1 := (pos - 1) >> 1
		index2 := (m - pos - 1) >> 1
		idx[i] = int(bitrev(index1, logN))
		idx[i|rowSize] = int(bitrev(index2, logN))
		pos = ring.GaloisCompose(n, pos, ring.GaloisGen)
	}
	return idx
}

func bitrev(x uint64, bitLen int) uint64 {
	var r uint64
	for i := 0; i < bitLen; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// Batching reports whether this context supports slot encoding.
func (c *Context) Batching() bool { return c.batching }

// SlotIndex returns a copy of the slot-to-coefficient-position table:
// slot i of the batched plaintext lives at NTT position SlotIndex()[i] of
// the mod-t transform. Package pack uses it to build homomorphic linear
// transforms between the two encodings.
func (c *Context) SlotIndex() []int {
	return append([]int(nil), c.slotIdx...)
}

// Slots returns the usable slot count per row (N/2); the full plaintext
// carries two rows.
func (c *Context) Slots() int { return c.N / 2 }

// CiphertextSizeBytes returns the byte size of a fresh 2-poly ciphertext
// at full level (the metric Table 1 reports).
func (c *Context) CiphertextSizeBytes() int {
	return 2 * c.N * len(c.Params.Qi) * 8
}

// LogQ returns the total ciphertext modulus size in bits.
func (c *Context) LogQ() int { return c.QBig.BitLen() }
