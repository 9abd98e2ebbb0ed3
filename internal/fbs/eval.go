package fbs

import (
	"fmt"
	"math"

	"athena/internal/bfv"
	"athena/internal/par"
)

// Evaluator is the compiled plan of one LUT: its interpolated polynomial,
// the Alg. 2 Baby-Step Giant-Step split, and the operation counts of one
// evaluation. It is immutable after NewEvaluator and safe for concurrent
// use through EvaluateWith, each caller with its own Scratch; Evaluate
// runs on a default scratch and is single-caller, like pack.Packer.Pack.
//
// With y = x^bs the polynomial is Σ_a (Σ_b c_{a·bs+b}·x^b)·y^a. Powers
// are built by balanced splitting so the multiplicative depth stays at
// O(log t) (matching the 17-level CMult budget in Table 4). Every product
// runs on bfv operands: a power is extended to the tensor basis once,
// when it is produced, and only if a later product reads it (x^1 …
// x^⌈bs/2⌉ and every y^a), and the giant-step sum Σ_{a≥1} inner_a ⊗ y^a
// is accumulated unreduced in that basis — one partial sum per worker
// lane, added in lane order — and rescaled and relinearized once. Both
// ladders run level-parallel: powers m+1 … 2m read only 1 … m, so each
// doubling level fans out over the same lanes, every power still one
// product finished once on whichever lane computes it. The additions are
// exact and a product does not depend on its evaluator's scratch, so the
// result is bit-identical at any GOMAXPROCS.
type Evaluator struct {
	ctx *bfv.Context
	plan
	// c0 is the constant term as a plaintext (the constant polynomial is
	// the slot encoding of a constant vector); nil when it is zero.
	c0 *bfv.Plaintext

	// Operations one evaluation issues, fixed by the plan: CMults counts
	// ciphertext × ciphertext products, SMults scalar products, HAdds
	// ciphertext additions (those inside the extended basis included).
	CMults, SMults, HAdds int

	sc *Scratch // Evaluate's default scratch, built on first use
}

// plan is the part of an Evaluator the fan-out workers read: the
// polynomial and its split.
type plan struct {
	coeffs []uint64
	bs, gs int
}

// NewEvaluator interpolates lut and prepares the evaluation plan. The
// LUT modulus must equal the context's plaintext modulus.
func NewEvaluator(ctx *bfv.Context, lut *LUT) (*Evaluator, error) {
	if lut.T != ctx.Params.T {
		return nil, fmt.Errorf("fbs: LUT modulus %d != plaintext modulus %d", lut.T, ctx.Params.T)
	}
	t := int(lut.T)
	bs := int(math.Ceil(math.Sqrt(float64(t))))
	e := &Evaluator{ctx: ctx, plan: plan{coeffs: lut.Interpolate(), bs: bs, gs: (t + bs - 1) / bs}}
	if c := e.coeffs[0]; c != 0 {
		e.c0 = ctx.NewPlaintext()
		e.c0.Coeffs[0] = c
		e.HAdds++
	}
	// The two power ladders, then per giant step a ≥ 1 one block product
	// (unless the block has no x^b term) and the scalar terms: n − 1 adds
	// inside an n-term inner sum, one per term that lands on the result.
	e.CMults = e.bs - 1 + max(e.gs-2, 0)
	blocks := 0
	for a := 0; a < e.gs; a++ {
		n := 0
		for b := 1; b < e.bs; b++ {
			if e.coeff(a, b) != 0 {
				n++
			}
		}
		e.SMults += n
		if a == 0 {
			e.HAdds += n
			continue
		}
		if n > 0 {
			blocks++
			e.HAdds += n - 1
		}
		if e.coeff(a, 0) != 0 {
			e.SMults++
			e.HAdds++
		}
	}
	e.CMults += blocks
	e.HAdds += max(blocks-1, 0)
	return e, nil
}

// Steps reports the (babySteps, giantSteps) split.
func (e *Evaluator) Steps() (int, int) { return e.bs, e.gs }

// coeff returns c_{a·bs+b}, zero past the polynomial's degree.
//
//lint:noalloc
func (p *plan) coeff(a, b int) uint64 {
	if i := a*p.bs + b; i < len(p.coeffs) {
		return p.coeffs[i]
	}
	return 0
}

// terms stages one fused scalar sum Σ ks[i]·cts[i].
type terms struct {
	cts []*bfv.Ciphertext
	ks  []uint64
}

func newTerms(n int) terms {
	return terms{cts: make([]*bfv.Ciphertext, 0, n), ks: make([]uint64, 0, n)}
}

//lint:noalloc
func (t *terms) reset() { t.cts, t.ks = t.cts[:0], t.ks[:0] }

// add stages k·ct unless k is zero.
//
//lint:noalloc
func (t *terms) add(ct *bfv.Ciphertext, k uint64) {
	if k != 0 {
		//lint:prealloc newTerms sizes both slices to the most terms their sum can hold
		t.cts, t.ks = append(t.cts, ct), append(t.ks, k)
	}
}

// Scratch is the per-caller state of an evaluation: the power ladders as
// ciphertexts and operands, the fan-out lanes with their partial sums,
// and the scalar-sum staging. It is sized on first use by the plan it
// runs (B limbs only for the powers that become operands) and reused
// while the context and split stay the same. Distinct Scratches over one
// Evaluator may run concurrently; a single Scratch may not.
type Scratch struct {
	ctx    *bfv.Context
	bs, gs int

	// powers[k] = x^k for k ≤ bs (powers[1] is the caller's input),
	// giants[a] = y^a (giants[1] is powers[bs]); the Op slices hold the
	// extensions, nil where no product reads the power.
	powers, giants     []*bfv.Ciphertext
	powerOps, giantOps []*bfv.Operand
	tmp                *bfv.Ciphertext // a second group's finished sum

	tail terms // the scalar terms added to the finished sum
	errs []error

	// The ladder level being fanned out — rung k of cts/ops for k in
	// [lo, lo+n) — and the worker function over it. step is built once per
	// fit and reads the level through the scratch, so a level costs no
	// closure.
	level struct {
		cts []*bfv.Ciphertext
		ops []*bfv.Operand
		lo  int
	}
	step func(w, i int)

	// Fan-out lanes of the ladder levels and the giant steps, keyed to the
	// evaluator passed to EvaluateWith and reused while it stays the same.
	base  *bfv.Evaluator
	lanes *par.Pool[*lane]
}

// lane is one worker of the fan-outs: a ShallowCopy'd evaluator (own
// scratch arena) and an accumulator — the one product of a ladder rung,
// then the lane's partial sum of block products — plus, for the giant
// steps, the inner sum it is working on as ciphertext and operand and
// its scalar-sum staging. A lane is only ever touched by the worker slot
// it belongs to.
type lane struct {
	ev    *bfv.Evaluator
	inner *bfv.Ciphertext
	op    *bfv.Operand
	acc   *bfv.Accumulator
	terms terms
}

// NewScratch returns evaluation state for one concurrent caller.
func NewScratch() *Scratch { return &Scratch{} }

// fit sizes the scratch for e's context and split and binds its lanes to
// ev.
func (sc *Scratch) fit(e *Evaluator, ev *bfv.Evaluator) {
	if sc.ctx != e.ctx || sc.bs != e.bs || sc.gs != e.gs {
		ctx, bs, gs := e.ctx, e.bs, e.gs
		*sc = Scratch{ctx: ctx, bs: bs, gs: gs}
		sc.powers, sc.powerOps = make([]*bfv.Ciphertext, bs+1), make([]*bfv.Operand, bs+1)
		sc.giants, sc.giantOps = make([]*bfv.Ciphertext, gs), make([]*bfv.Operand, gs)
		for k := 2; k <= bs; k++ {
			sc.powers[k] = ctx.NewCiphertext()
		}
		for k := 1; k <= (bs+1)/2; k++ {
			sc.powerOps[k] = ctx.NewOperand()
		}
		if gs > 1 {
			if sc.powerOps[bs] == nil {
				sc.powerOps[bs] = ctx.NewOperand()
			}
			sc.giants[1], sc.giantOps[1] = sc.powers[bs], sc.powerOps[bs]
		}
		for a := 2; a < gs; a++ {
			sc.giants[a], sc.giantOps[a] = ctx.NewCiphertext(), ctx.NewOperand()
		}
		if gs-1 > ctx.SumCapacity() {
			sc.tmp = ctx.NewCiphertext()
		}
		sc.tail = newTerms(bs + gs)
		sc.errs = make([]error, max(bs, gs))
		sc.step = func(w, i int) {
			// Writes rung lo+i, errs[i] and the lane it is handed; the rungs
			// it reads belong to earlier levels.
			ln, lv := sc.lanes.Get(w), &sc.level
			sc.errs[i] = ladderStep(ln.ev, ln.acc, lv.cts, lv.ops, lv.lo+i)
		}
	}
	if sc.lanes == nil || sc.base != ev {
		sc.base = ev
		ctx, bs := sc.ctx, sc.bs
		sc.lanes = par.NewPool(func() *lane {
			return &lane{
				ev:    ev.ShallowCopy(),
				inner: ctx.NewCiphertext(),
				op:    ctx.NewOperand(),
				acc:   ctx.NewAccumulator(),
				terms: newTerms(bs),
			}
		})
	}
}

// Evaluate applies the LUT to every slot of ct: each slot value v becomes
// LUT(v). This single call realizes the non-linear activation, the
// requantization, and the noise refresh semantics of Athena's functional
// bootstrapping (the noise was already refreshed by packing; FBS keeps
// the result exact mod t). It uses the evaluator's default scratch;
// concurrent callers use EvaluateWith with a Scratch each.
func (e *Evaluator) Evaluate(ev *bfv.Evaluator, ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if e.sc == nil {
		e.sc = NewScratch()
	}
	return e.EvaluateWith(ev, e.sc, ct)
}

// EvaluateWith is Evaluate with caller-owned state. ev must be an
// evaluator of the plan's context holding a relinearization key.
func (e *Evaluator) EvaluateWith(ev *bfv.Evaluator, sc *Scratch, ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	sc.fit(e, ev)
	// A call that failed midway may have left products behind.
	sc.lanes.Each(func(ln *lane) { ln.acc.Reset() })
	acc := sc.lanes.Get(0).acc

	// Baby powers x^2 … x^bs, then giant powers y^2 … y^(gs−1) with y =
	// x^bs, each the product of its two balanced halves.
	sc.powers[1] = ct
	if err := ev.ExtendInto(ct, sc.powerOps[1]); err != nil {
		return nil, err
	}
	if err := sc.ladder(sc.powers, sc.powerOps, e.bs); err != nil {
		return nil, err
	}
	if err := sc.ladder(sc.giants, sc.giantOps, e.gs-1); err != nil {
		return nil, err
	}

	// Σ_{a≥1} inner_a ⊗ y^a with inner_a = Σ_{b≥1} c_{a·bs+b}·x^b: the
	// giant steps are independent — each costs ~bs scalar products, one
	// extension and one tensor product — so every step is worth a worker.
	// A lane adds its steps into its own accumulator; the partial sums
	// are added in lane order and finished once per group of at most
	// SumCapacity steps (one group at every shipped parameter shape).
	res := e.ctx.NewCiphertext()
	plan, powers, giantOps, lanes := &e.plan, sc.powers, sc.giantOps, sc.lanes
	for lo, group := 1, e.ctx.SumCapacity(); lo < e.gs; {
		n := min(e.gs-lo, group)
		errs := sc.errs[:n]
		par.ForEach(n, par.Options{MinGrain: 1}, func(w, i int) {
			// Writes only the lane it is handed; the plan and the power
			// ladders it reads are not written during the fan-out.
			errs[i] = plan.blockProduct(lanes.Get(w), powers, giantOps, lo+i)
		})
		err := par.FirstErr(errs)
		lanes.Each(func(ln *lane) {
			if ln.acc != acc && err == nil {
				err = ev.AddAccumulator(ln.acc, acc)
			}
		})
		if err != nil {
			return nil, err
		}
		if acc.Terms() > 0 {
			out := res
			if lo > 1 {
				out = sc.tmp
			}
			if err := ev.FinishInto(acc, out); err != nil {
				return nil, err
			}
			if lo > 1 {
				ev.AddInPlace(res, sc.tmp)
			}
		}
		lo += n
	}

	// The terms no product reads: giant step 0's inner sum and the
	// constants c_{a·bs}·y^a in one fused pass, then c_0.
	tail := &sc.tail
	tail.reset()
	for b := 1; b < e.bs; b++ {
		tail.add(sc.powers[b], e.coeff(0, b))
	}
	for a := 1; a < e.gs; a++ {
		tail.add(sc.giants[a], e.coeff(a, 0))
	}
	if len(tail.cts) > 0 {
		ev.MulScalarSumAndAdd(tail.cts, tail.ks, res)
	}
	if e.c0 != nil {
		ev.AddPlainInPlace(res, e.c0)
	}
	return res, nil
}

// ladder fills rungs 2 … top of a power ladder whose rung 1 is in place.
// Rung k reads only rungs ⌊k/2⌋ and ⌈k/2⌉, so with 1 … m done the rungs
// m+1 … min(2m, top) are independent: each doubling level is one fan-out
// over the lanes, a CMult per item.
func (sc *Scratch) ladder(cts []*bfv.Ciphertext, ops []*bfv.Operand, top int) error {
	sc.level.cts, sc.level.ops = cts, ops
	for m := 1; m < top; m *= 2 {
		n := min(m, top-m)
		sc.level.lo = m + 1
		par.ForEach(n, par.Options{MinGrain: 1}, sc.step)
		if err := par.FirstErr(sc.errs[:n]); err != nil {
			return err
		}
	}
	return nil
}

// ladderStep sets cts[k] = cts[⌊k/2⌋]·cts[⌈k/2⌉] and extends it when a
// later product reads it (ops[k] is non-nil).
//
//lint:noalloc
func ladderStep(ev *bfv.Evaluator, acc *bfv.Accumulator, cts []*bfv.Ciphertext, ops []*bfv.Operand, k int) error {
	if err := ev.Accumulate(ops[k/2], ops[k-k/2], acc); err != nil {
		return err
	}
	if err := ev.FinishInto(acc, cts[k]); err != nil {
		return err
	}
	if ops[k] == nil {
		return nil
	}
	return ev.ExtendInto(cts[k], ops[k])
}

// blockProduct adds inner_a ⊗ y^a to the lane's partial sum, inner_a =
// Σ_{b≥1} c_{a·bs+b}·x^b being one fused MulScalarSumInto pass over the
// nonzero terms; a block without any adds nothing.
//
//lint:noalloc
func (p *plan) blockProduct(ln *lane, powers []*bfv.Ciphertext, giantOps []*bfv.Operand, a int) error {
	inner := &ln.terms
	inner.reset()
	for b := 1; b < p.bs; b++ {
		inner.add(powers[b], p.coeff(a, b))
	}
	if len(inner.cts) == 0 {
		return nil
	}
	ln.ev.MulScalarSumInto(inner.cts, inner.ks, ln.inner)
	if err := ln.ev.ExtendInto(ln.inner, ln.op); err != nil {
		return err
	}
	return ln.ev.Accumulate(ln.op, giantOps[a], ln.acc)
}
