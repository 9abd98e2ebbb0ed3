package bfv

import (
	"fmt"

	"athena/internal/ring"
	"athena/internal/rns"
)

// Ciphertext multiplication (CMult) is three steps, each usable on its
// own so that a caller pays a fixed cost once per value or once per sum
// instead of once per product:
//
//   - ExtendInto lifts a ciphertext to the basis Q ∪ B of a tensor
//     product (an Operand). A ciphertext that enters several products is
//     extended once.
//   - Accumulate adds the tensor product of two operands to an
//     Accumulator, unreduced: the sum Σ a_k ⊗ b_k is formed exactly
//     modulo Q·B, which holds up to Context.SumCapacity terms.
//   - FinishInto rescales the accumulated sum by t/Q back to Q and
//     relinearizes it: one rounding and one keyswitch for the whole sum.
//
// Mul is the one-term case of that path.

// Operand is a ciphertext over the extended basis Q ∪ B: the ciphertext
// holds the Q limbs, b0 and b1 the B limbs (NTT domain) of C0 and C1 read
// as their centered representatives. It stays valid until the ciphertext
// is next written.
type Operand struct {
	ct     *Ciphertext
	b0, b1 ring.Poly
}

// NewOperand allocates the B limbs of an operand; ExtendInto fills it.
func (c *Context) NewOperand() *Operand {
	return &Operand{b0: c.RingB.NewPoly(), b1: c.RingB.NewPoly()}
}

// Accumulator is a sum of tensor products (d0, d1, d2) over Q ∪ B in the
// NTT domain, not yet rescaled. The additions are exact modular ones, so
// a sum does not depend on the order or grouping of its terms.
type Accumulator struct {
	q, b  [3]ring.Poly
	terms int
}

// NewAccumulator allocates an empty accumulator.
func (c *Context) NewAccumulator() *Accumulator {
	acc := &Accumulator{}
	for i := range acc.q {
		acc.q[i], acc.b[i] = c.RingQ.NewPoly(), c.RingB.NewPoly()
	}
	return acc
}

// Terms reports how many products the accumulator holds.
func (acc *Accumulator) Terms() int { return acc.terms }

// Reset empties the accumulator.
//
//lint:noalloc
func (acc *Accumulator) Reset() { acc.terms = 0 }

// SumCapacity is the number of tensor products one Accumulator may hold:
// ⌊(B − 2)/(t·N·Q + 1)⌋ for the extension basis B this context built. A
// coefficient of a K-term sum is at most K·N·(Q−1)²/2 in magnitude, so up
// to this K the sum does not wrap modulo Q·B and its t/Q rescale is its
// own centered representative modulo B (see buildTensor, the case K = 1).
func (c *Context) SumCapacity() int { return c.sumCap }

// checkLevel rejects a ciphertext whose limb count is not the
// evaluator's: the ring kernels iterate the limbs of their first operand,
// so a longer one would index past the scratch arena and a shorter one
// would leave stale limbs in it.
//
//lint:noalloc
func (ev *Evaluator) checkLevel(ct *Ciphertext) error {
	if L := ev.ctx.Level(); ct.C0.Level() != L || ct.C1.Level() != L {
		return fmt.Errorf("bfv: operand at level %d, evaluator at level %d", ct.Level(), L)
	}
	return nil
}

// tensorScratch returns the arena behind ExtendInto and FinishInto,
// allocating it on first use.
//
//lint:noalloc
func (ev *Evaluator) tensorScratch() *evalScratch {
	sc := ev.sc
	if sc.rns == nil {
		rq, rb := ev.ctx.RingQ, ev.ctx.RingB
		sc.cq, sc.d2, sc.sb = rq.NewPoly(), rq.NewPoly(), rb.NewPoly() //lint:allow noalloc one-time lazy arena fill, reused across calls
		sc.rns = rns.NewScratch(max(rq.Level(), rb.Level()), rq.N)     //lint:allow noalloc one-time lazy arena fill, reused across calls
	}
	return sc
}

// ExtendInto fills op with ct over Q ∪ B. op keeps a reference to ct, not
// a copy.
//
//lint:noalloc
func (ev *Evaluator) ExtendInto(ct *Ciphertext, op *Operand) error {
	if err := ev.checkLevel(ct); err != nil {
		return err
	}
	sc := ev.tensorScratch()
	ev.extend(ct.C0, op.b0, sc)
	ev.extend(ct.C1, op.b1, sc)
	op.ct = ct
	return nil
}

// extend fills e with the B limbs (NTT domain) of the NTT-domain
// polynomial p over Q, read as its centered representative.
//
//lint:noalloc
func (ev *Evaluator) extend(p, e ring.Poly, sc *evalScratch) {
	ctx := ev.ctx
	p.CopyTo(sc.cq)
	ctx.RingQ.INTT(sc.cq)
	ctx.toB.Convert(sc.cq, e, sc.rns)
	ctx.RingB.NTT(e)
}

// Accumulate sets acc += a ⊗ b, the tensor product (d0, d1, d2) =
// (a0·b0, a0·b1 + a1·b0, a1·b1) over Q ∪ B; a and b may be the same
// operand. An accumulator already at Context.SumCapacity is an error.
//
//lint:noalloc
func (ev *Evaluator) Accumulate(a, b *Operand, acc *Accumulator) error {
	if err := ev.checkLevel(a.ct); err != nil {
		return err
	}
	if err := ev.checkLevel(b.ct); err != nil {
		return err
	}
	if acc.terms >= ev.ctx.sumCap {
		return fmt.Errorf("bfv: accumulator holds %d products, capacity %d", acc.terms, ev.ctx.sumCap)
	}
	rq, rb := ev.ctx.RingQ, ev.ctx.RingB
	if acc.terms == 0 {
		rq.MulCoeffs(a.ct.C0, b.ct.C0, acc.q[0])
		rb.MulCoeffs(a.b0, b.b0, acc.b[0])
		rq.MulCoeffs(a.ct.C0, b.ct.C1, acc.q[1])
		rb.MulCoeffs(a.b0, b.b1, acc.b[1])
		rq.MulCoeffs(a.ct.C1, b.ct.C1, acc.q[2])
		rb.MulCoeffs(a.b1, b.b1, acc.b[2])
	} else {
		rq.MulCoeffsAndAdd(a.ct.C0, b.ct.C0, acc.q[0])
		rb.MulCoeffsAndAdd(a.b0, b.b0, acc.b[0])
		rq.MulCoeffsAndAdd(a.ct.C0, b.ct.C1, acc.q[1])
		rb.MulCoeffsAndAdd(a.b0, b.b1, acc.b[1])
		rq.MulCoeffsAndAdd(a.ct.C1, b.ct.C1, acc.q[2])
		rb.MulCoeffsAndAdd(a.b1, b.b1, acc.b[2])
	}
	rq.MulCoeffsAndAdd(a.ct.C1, b.ct.C0, acc.q[1])
	rb.MulCoeffsAndAdd(a.b1, b.b0, acc.b[1])
	acc.terms++
	return nil
}

// AddAccumulator sets acc += part and empties part: the merge of the
// partial sums of a fan-out, one per worker. The combined term count must
// fit the capacity.
//
//lint:noalloc
func (ev *Evaluator) AddAccumulator(part, acc *Accumulator) error {
	if acc.terms+part.terms > ev.ctx.sumCap {
		return fmt.Errorf("bfv: accumulators hold %d + %d products, capacity %d", acc.terms, part.terms, ev.ctx.sumCap)
	}
	if part.terms == 0 {
		return nil
	}
	rq, rb := ev.ctx.RingQ, ev.ctx.RingB
	for i := range acc.q {
		if acc.terms == 0 {
			part.q[i].CopyTo(acc.q[i])
			part.b[i].CopyTo(acc.b[i])
		} else {
			rq.Add(acc.q[i], part.q[i], acc.q[i])
			rb.Add(acc.b[i], part.b[i], acc.b[i])
		}
	}
	acc.terms += part.terms
	part.terms = 0
	return nil
}

// FinishInto writes the relinearized, rescaled sum held by acc into out
// and empties acc: each of d0, d1, d2 is rescaled by t/Q from Q ∪ B into B
// and converted back to Q, all exact and word-sized (rns.Scaler,
// rns.Converter), then d2 is keyswitched into (d0, d1). Requires a
// relinearization key. out may be a ciphertext the accumulated operands
// refer to.
//
//lint:noalloc
func (ev *Evaluator) FinishInto(acc *Accumulator, out *Ciphertext) error {
	if ev.keys == nil || ev.keys.Relin == nil {
		return fmt.Errorf("bfv: Mul requires a relinearization key")
	}
	if l := ev.keys.Relin.Level(); l < ev.ctx.Level() {
		return fmt.Errorf("bfv: relinearization key at level %d, Mul at level %d", l, ev.ctx.Level())
	}
	if acc.terms == 0 {
		return fmt.Errorf("bfv: finishing an empty accumulator")
	}
	if err := ev.checkLevel(out); err != nil {
		return err
	}
	ctx := ev.ctx
	rq, rb := ctx.RingQ, ctx.RingB
	sc := ev.tensorScratch()
	for i, d := range [3]ring.Poly{out.C0, out.C1, sc.d2} {
		rq.INTT(acc.q[i])
		rb.INTT(acc.b[i])
		ctx.scale.ScaleRound(acc.q[i], acc.b[i], sc.sb, sc.rns)
		ctx.toQ.Convert(sc.sb, d, sc.rns)
	}
	acc.terms = 0
	rq.NTT(out.C0)
	rq.NTT(out.C1)
	// d2 is in the coefficient domain; keyswitch folds it into (C0, C1).
	ks0, ks1 := ev.keySwitchCoeff(sc.d2, &ev.keys.Relin.SwitchingKey)
	rq.Add(out.C0, ks0, out.C0)
	rq.Add(out.C1, ks1, out.C1)
	return nil
}

// Mul returns the relinearized product a·b (CMult) in a fresh ciphertext;
// a squaring extends its operand once. Requires a relinearization key. It
// exists for bench/'s CMult probe and softmax's one product, and goes
// when the probe moves.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	sc := ev.sc
	if sc.acc == nil {
		sc.opA, sc.opB = ev.ctx.NewOperand(), ev.ctx.NewOperand()
		sc.acc = ev.ctx.NewAccumulator()
	}
	if err := ev.ExtendInto(a, sc.opA); err != nil {
		return nil, err
	}
	opB := sc.opA
	if b != a {
		if err := ev.ExtendInto(b, sc.opB); err != nil {
			return nil, err
		}
		opB = sc.opB
	}
	sc.acc.Reset()
	if err := ev.Accumulate(sc.opA, opB, sc.acc); err != nil {
		return nil, err
	}
	out := ev.ctx.NewCiphertext()
	if err := ev.FinishInto(sc.acc, out); err != nil {
		return nil, err
	}
	return out, nil
}
