package bfv

import (
	"fmt"

	"athena/internal/ring"
)

// Encoder converts between integer data and BFV plaintexts in the two
// encodings Athena uses:
//
//   - Coefficient encoding: value i sits in plaintext coefficient i.
//     Polynomial multiplication then computes negacyclic convolutions,
//     which is how the linear layers run (Section 3.2.1).
//   - Slot (batch) encoding: values sit in the N CRT slots of
//     Z_t[X]/(X^N+1); ⊙ then acts pointwise. Requires t ≡ 1 (mod 2N).
//     The slot layout is two rows of N/2; X -> X^5 rotates the rows.
type Encoder struct {
	ctx *Context
	// slotTmp is the reusable RingT staging polynomial behind the *Into
	// encode paths; its laziness keeps coefficient-only encoders free.
	// Encoders holding scratch are single-goroutine state.
	slotTmp ring.Poly
}

// NewEncoder creates an encoder over ctx.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// reduceT maps a signed value into [0, t).
func (e *Encoder) reduceT(v int64) uint64 { return e.ctx.TMod.ReduceInt64(v) }

// EncodeCoeffs places vals (signed, interpreted mod t) into plaintext
// coefficients 0..len(vals)-1. len(vals) must not exceed N.
func (e *Encoder) EncodeCoeffs(vals []int64) *Plaintext {
	pt := e.ctx.NewPlaintext()
	e.EncodeCoeffsInto(vals, pt)
	return pt
}

// EncodeCoeffsInto is EncodeCoeffs writing into a caller-provided
// plaintext, whose coefficients past len(vals) it clears.
//
//lint:noalloc
func (e *Encoder) EncodeCoeffsInto(vals []int64, pt *Plaintext) {
	if len(vals) > e.ctx.N {
		panic(fmt.Sprintf("bfv: %d values exceed N=%d", len(vals), e.ctx.N))
	}
	for i, v := range vals {
		pt.Coeffs[i] = e.reduceT(v)
	}
	clear(pt.Coeffs[len(vals):])
}

// DecodeCoeffs returns the centered coefficients of pt.
func (e *Encoder) DecodeCoeffs(pt *Plaintext) []int64 {
	out := make([]int64, len(pt.Coeffs))
	for i, v := range pt.Coeffs {
		out[i] = e.ctx.TMod.Centered(v)
	}
	return out
}

// EncodeSlots places vals into the first len(vals) slots (row-major over
// the two rows of N/2). Requires batching support.
func (e *Encoder) EncodeSlots(vals []int64) *Plaintext {
	pt := e.ctx.NewPlaintext()
	e.EncodeSlotsInto(vals, pt)
	return pt
}

// EncodeSlotsInto is EncodeSlots writing into a caller-provided plaintext,
// reusing the encoder's staging buffer (zero allocations at steady state).
//
//lint:noalloc
func (e *Encoder) EncodeSlotsInto(vals []int64, pt *Plaintext) {
	ctx := e.ctx
	if !ctx.batching {
		panic("bfv: parameters do not support batching (t != 1 mod 2N)")
	}
	if len(vals) > ctx.N {
		panic(fmt.Sprintf("bfv: %d values exceed N=%d slots", len(vals), ctx.N))
	}
	if e.slotTmp.Level() == 0 {
		e.slotTmp = ctx.RingT.NewPoly() //lint:allow noalloc one-time lazy staging buffer, reused across calls
	}
	tmp := e.slotTmp
	row := tmp.Coeffs[0]
	for i := range row {
		row[i] = 0
	}
	for i, v := range vals {
		row[ctx.slotIdx[i]] = e.reduceT(v)
	}
	ctx.RingT.INTT(tmp)
	copy(pt.Coeffs, row)
}

// DecodeSlots returns all N slot values of pt, centered.
func (e *Encoder) DecodeSlots(pt *Plaintext) []int64 {
	ctx := e.ctx
	if !ctx.batching {
		panic("bfv: parameters do not support batching")
	}
	tmp := ctx.RingT.NewPoly()
	copy(tmp.Coeffs[0], pt.Coeffs)
	ctx.RingT.NTT(tmp)
	out := make([]int64, ctx.N)
	for i := range out {
		out[i] = ctx.TMod.Centered(tmp.Coeffs[0][ctx.slotIdx[i]])
	}
	return out
}

// LiftToMul pre-lifts a plaintext into the ciphertext ring NTT domain
// using centered representatives, for use with MulPlainInto.
func (e *Encoder) LiftToMul(pt *Plaintext) *PlaintextMul {
	pm := &PlaintextMul{Value: e.ctx.RingQ.NewPoly()}
	e.LiftToMulInto(pt, pm)
	return pm
}

// LiftToMulInto is LiftToMul writing into a caller-provided PlaintextMul
// (pm.Value must be allocated over RingQ), for scratch reuse.
//
//lint:noalloc
func (e *Encoder) LiftToMulInto(pt *Plaintext, pm *PlaintextMul) {
	ctx := e.ctx
	p := pm.Value
	for i := range ctx.RingQ.Moduli {
		m := ctx.RingQ.Moduli[i]
		pi := p.Coeffs[i]
		for j, v := range pt.Coeffs {
			pi[j] = m.ReduceInt64(ctx.TMod.Centered(v))
		}
	}
	ctx.RingQ.NTT(p)
}

// LiftToDelta lifts a plaintext to Δ·m in the ciphertext ring NTT domain
// (the additive embedding used at encryption and for plain addition).
func (e *Encoder) LiftToDelta(pt *Plaintext) ring.Poly {
	p := e.ctx.RingQ.NewPoly()
	e.LiftToDeltaInto(pt, p)
	return p
}

// LiftToDeltaInto is LiftToDelta writing into a caller-provided polynomial,
// so steady-state callers can reuse a scratch buffer.
//
//lint:noalloc
func (e *Encoder) LiftToDeltaInto(pt *Plaintext, p ring.Poly) {
	ctx := e.ctx
	for i := range ctx.RingQ.Moduli {
		m := ctx.RingQ.Moduli[i]
		d := ctx.DeltaQi[i]
		ds := m.ShoupPrecomp(d)
		pi := p.Coeffs[i]
		for j, v := range pt.Coeffs {
			pi[j] = m.MulShoup(m.Reduce(v), d, ds)
		}
	}
	ctx.RingQ.NTT(p)
}
