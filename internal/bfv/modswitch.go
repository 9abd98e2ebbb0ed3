package bfv

import (
	"fmt"

	"athena/internal/ring"
	"athena/internal/rns"
)

// SwitchModulus rescales ct from modulus Q to the word-sized modulus q2,
// returning the coefficient-domain pair (a, b) with b + a·s ≈ m·(q2/t)
// (mod q2). This is Step ② of the Athena loop: the large linear-layer
// noise e is annihilated by the scaling, at the price of a small rounding
// noise e_ms on the q2 scale.
//
// Choosing q2 = t·2^k leaves the message at scale 2^k; a subsequent LWE
// modulus switch to t (after sample extraction and dimension switching)
// recovers the scale-free embedding phase = m + e_ms used by functional
// bootstrapping.
//
// The scaling round(q2·x/Q) mod q2 is exact and word-sized
// (rns.WordScaler); q2 must lie below every prime of ct's chain.
func (c *Context) SwitchModulus(ct *Ciphertext, q2 uint64) (a, b []uint64, err error) {
	a, b = make([]uint64, c.N), make([]uint64, c.N)
	return a, b, c.SwitchModulusInto(ct, q2, a, b, nil)
}

// SwitchModulusInto is SwitchModulus writing the pair into the caller's a
// and b (N words each), staged in sc (a fresh staging when nil).
func (c *Context) SwitchModulusInto(ct *Ciphertext, q2 uint64, a, b []uint64, sc *RescaleScratch) error {
	// Dispatch on the ciphertext's level: a reduced ct rescales from its
	// own (shorter) chain, which is both correct and cheaper.
	c = c.atLevelOf(ct)
	ws, err := c.switchScaler(q2)
	if err != nil {
		return err
	}
	tmp, rs := sc.stage(c)
	for _, io := range [2]struct {
		in  ring.Poly
		out []uint64
	}{{ct.C1, a}, {ct.C0, b}} {
		io.in.CopyTo(tmp)
		c.RingQ.INTT(tmp)
		ws.ScaleRound(tmp, io.out, rs)
	}
	return nil
}

// RescaleScratch stages the once-per-ciphertext rescales, ModDownWith
// and SwitchModulusInto: one polynomial and the staging of the rns
// kernels, sized on first use for the whole chain and reused by every
// call after. The zero value is ready; a RescaleScratch serves one
// goroutine.
type RescaleScratch struct {
	poly ring.Poly
	rns  *rns.Scratch
}

// stage returns the staging for a source at c's level: a polynomial of
// c's limbs and the rns scratch. A nil sc stages in a fresh one.
func (sc *RescaleScratch) stage(c *Context) (ring.Poly, *rns.Scratch) {
	if sc == nil {
		sc = new(RescaleScratch)
	}
	if sc.poly.Level() < c.Level() {
		full := len(c.Params.Qi)
		sc.poly = ring.Poly{Coeffs: make([][]uint64, full)}
		backing := make([]uint64, full*c.N)
		for i := range sc.poly.Coeffs {
			sc.poly.Coeffs[i] = backing[i*c.N : (i+1)*c.N : (i+1)*c.N]
		}
		sc.rns = rns.NewScratch(full, c.N)
	}
	return ring.Poly{Coeffs: sc.poly.Coeffs[:c.Level()]}, sc.rns
}

// switchScaler returns the scaling by q2/Q into Z_q2 at c's level, built
// once per q2.
func (c *Context) switchScaler(q2 uint64) (*rns.WordScaler, error) {
	c.levelMu.Lock()
	defer c.levelMu.Unlock()
	if ws := c.switchCache[q2]; ws != nil {
		return ws, nil
	}
	ws, err := rns.NewWordScaler(c.BasisQ, q2)
	if err != nil {
		return nil, fmt.Errorf("bfv: modulus switch target: %w", err)
	}
	if c.switchCache == nil {
		c.switchCache = make(map[uint64]*rns.WordScaler)
	}
	c.switchCache[q2] = ws
	return ws, nil
}
