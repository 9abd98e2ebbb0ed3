package bfv

import (
	"fmt"
	"math/big"

	"athena/internal/ring"
)

// Per-level RNS modulus dropping. A Context fixes a prime chain Q =
// q_0·…·q_{k-1}; AtLevel(L) derives the context over the prefix chain
// Q_L = q_0·…·q_{L-1}. Because every ring kernel iterates the limbs of
// its (first) polynomial operand, full-chain key material — secret keys,
// switching keys, packing keys — works unchanged against reduced-level
// ciphertexts: the extra limbs simply go untouched. Only the keyswitch
// digit constants need correction (the key components encrypt the
// full-chain q̂_i), which AtLevel installs in the child.
//
// Dropping limbs after the noise-heavy stages is the classic RNS
// acceleration: every NTT and multiply scales linearly in the limb count
// and the base conversions of a ciphertext multiplication quadratically,
// so running the post-FBS accumulation at a short chain cuts the
// per-layer cost by at least the dropped fraction.

// Level returns the number of RNS limbs in this context's modulus chain.
func (c *Context) Level() int { return len(c.Params.Qi) }

// Level returns the ciphertext's limb count — the length of the prefix
// modulus chain it currently lives under.
func (ct *Ciphertext) Level() int { return ct.C0.Level() }

// AtLevel returns the context over the length-L prefix of c's modulus
// chain. L equal to c's own level returns c itself; smaller levels build
// (and cache) a derived context whose keyswitch digit constants are
// corrected for full-chain key material. Children are full Contexts:
// they carry their own ring, basis, Δ, tensor machinery (an extension
// basis sized and verified for their own Q), and batching tables, so
// every bfv operation runs on them unmodified.
func (c *Context) AtLevel(L int) (*Context, error) {
	full := c.Level()
	if L == full {
		return c, nil
	}
	if L < 1 || L > full {
		return nil, fmt.Errorf("bfv: level %d outside [1, %d]", L, full)
	}
	c.levelMu.Lock()
	defer c.levelMu.Unlock()
	if c.levelCache == nil {
		c.levelCache = make([]*Context, full)
	}
	if ch := c.levelCache[L]; ch != nil {
		return ch, nil
	}
	child, err := NewContext(Parameters{
		LogN:  c.Params.LogN,
		Qi:    append([]uint64(nil), c.Params.Qi[:L]...),
		T:     c.Params.T,
		Sigma: c.Params.Sigma,
	})
	if err != nil {
		return nil, fmt.Errorf("bfv: level %d context: %w", L, err)
	}
	// Keyswitch digit correction. Switching-key component i encrypts
	// q̂_i·s' where q̂_i = Q/q_i over the FULL chain. Reduced to mod Q_L
	// (prefix slicing), q̂_i = (Q_L/q_i)·(Q/Q_L), so the digit must carry
	//   d_i = [p_i · (Q_L/q_i)^{-1} · (Q/Q_L)^{-1}]_{q_i}
	// for Σ_i d_i·q̂_i ≡ p (mod Q_L). The first inverse is the child
	// basis's own QiHatInv; the second folds in the dropped primes, which
	// are coprime to every kept q_i, so the inverse exists.
	ratio := new(big.Int).Div(c.QBig, child.QBig)
	var qi, res big.Int
	for i := range child.ksDigitInv {
		m := child.BasisQ.Moduli[i]
		r := res.Mod(ratio, qi.SetUint64(m.Q)).Uint64()
		inv := m.Mul(child.BasisQ.QiHatInv[i], m.Inv(r))
		child.ksDigitInv[i] = inv
		child.ksDigitInvShoup[i] = m.ShoupPrecomp(inv)
	}
	c.levelCache[L] = child
	return child, nil
}

// atLevelOf resolves the context matching ct's level, panicking on a
// malformed ciphertext (a limb count outside [1, full] can only come
// from memory corruption, not from any bfv operation).
func (c *Context) atLevelOf(ct *Ciphertext) *Context {
	cc, err := c.AtLevel(ct.Level())
	if err != nil {
		panic("bfv: ciphertext level does not fit context: " + err.Error())
	}
	return cc
}

// ModDown rescales ct to the length-L prefix chain: the BFV-invariant
// rescale out ≈ round(Q_L/Q_src · ct) per component, which preserves the
// Δ·m message scale (Δ shrinks proportionally with Q) while dividing the
// accumulated noise by the dropped factor and shedding limbs from every
// subsequent operation. Returns ct unchanged when it already sits at L;
// raising a level is not supported.
func (c *Context) ModDown(ct *Ciphertext, L int) (*Ciphertext, error) {
	cur := ct.Level()
	if L == cur {
		return ct, nil
	}
	if L > cur {
		return nil, fmt.Errorf("bfv: cannot raise level %d to %d", cur, L)
	}
	src, err := c.AtLevel(cur)
	if err != nil {
		return nil, err
	}
	dst, err := c.AtLevel(L)
	if err != nil {
		return nil, err
	}
	out := dst.NewCiphertext()
	for _, io := range [2]struct{ in, out ring.Poly }{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		tmp := io.in.Clone()
		src.RingQ.INTT(tmp)
		src.BasisQ.ScaleAndRound(tmp, dst.QBig, src.QBig, dst.BasisQ, io.out)
		dst.RingQ.NTT(io.out)
	}
	return out, nil
}
