package fbs

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/par"
)

// Evaluator is the compiled plan of one LUT: its interpolated polynomial,
// a three-digit Baby-Step Giant-Step split, and the operation counts of
// one evaluation. It is immutable after NewEvaluator and safe for
// concurrent use through EvaluateWith, each caller with its own Scratch;
// Evaluate runs on a default scratch and is single-caller, like
// pack.Packer.Pack.
//
// A coefficient index is b + bs·(a₁ + g₁·a₂). With y = x^bs and z = y^g₁
// the polynomial is Σ_{a₂} mid_{a₂}·z^{a₂}, where the middle sum mid_{a₂}
// = inner_{0,a₂} + Σ_{a₁≥1} inner_{a₁,a₂} ⊗ y^{a₁} and the inner sum
// inner_{a₁,a₂} = Σ_b c_{b+bs·(a₁+g₁·a₂)}·x^b. Alg. 2 of the paper is the
// case g₂ = 1 (one middle sum, no z); its FRU array makes a CMult cheap,
// whereas here the rescale and relinearization that finish a product are
// over half of a call, so a second giant level pays: the powers y² … y^g₁
// and z² … z^(g₂−1) replace y² … y^(gs−1). The split is chosen once, by
// chooseSplit: the least weighted count of finishes, extensions and
// products (split.cost; the weights are constants so that a plan never
// depends on the host) among the splits whose multiplicative depth is no
// greater than the flat split's ⌈log₂ bs⌉ + ⌈log₂(gs−1)⌉ + 1 — the noise
// budget of Table 4 is sized by depth — and whose accumulators hold no
// more than the context's SumCapacity products, g₁ − 1 + g₂ − 1 at most.
//
// Every product runs on bfv operands: a power is extended to the tensor
// basis once, when it is produced, and only if a later product reads it
// (x^1 … x^⌈bs/2⌉, x^bs, every y and z). The baby step is a matrix
// product: the inner sums are the gs × bs coefficient matrix times the
// matrix whose rows are x^0 … x^(bs−1) — x^0 a constant ciphertext, so a
// coefficient c_{a·bs} is a plaintext addition inside its inner sum —
// computed a group of rows at a time (bfv.MulScalarSums). Every sum of
// products is accumulated unreduced in the tensor basis and rescaled and
// relinearized once: a middle sum on the lane that computes it, which
// then extends it once and adds mid ⊗ z^{a₂} to the lane's part of the
// final sum; the products of mid₀ go into the final sum directly, so mid₀
// is never finished. The parts are added in lane order. The three ladders
// run level-parallel: powers m+1 … 2m read only 1 … m, so each doubling
// level fans out over the same lanes, every power one product finished
// once on whichever lane computes it. The additions and the scalar sums
// are exact and a product does not depend on its evaluator's scratch, so
// the result is bit-identical at any GOMAXPROCS and for any grouping.
type Evaluator struct {
	ctx *bfv.Context
	plan

	// Operations one evaluation issues, fixed by the plan: CMults counts
	// ciphertext × ciphertext products, SMults scalar products, HAdds
	// additions — of ciphertexts (those inside the extended basis
	// included) and of the constants c_{a·bs}.
	CMults, SMults, HAdds int
	// finishes and extensions count its FinishInto and ExtendInto calls.
	finishes, extensions int

	sc *Scratch // Evaluate's default scratch, built on first use
}

// plan is the part of an Evaluator the fan-out workers read: the
// polynomial and its split.
type plan struct {
	// coeffs is the gs × bs coefficient matrix, row a holding c_{a·bs} …
	// c_{a·bs+bs−1} (zero past the polynomial's degree).
	coeffs []uint64
	split
	// mids[a₂] lists the giant steps a = a₁ + g₁·a₂ of middle sum a₂ whose
	// row has a term, in the order a lane takes them: those with a₁ ≥ 1,
	// ascending, then the step a₁ = 0, whose inner sum no product by y
	// reads. mids[0] leaves that one out: it is the head.
	mids [][]int
	// head reports that row 0 has a term: inner_{0,0} is added to the
	// result as it is.
	head bool
}

// groupSize is how many giant steps a lane takes at a time: their inner
// sums are one MulScalarSums call — two passes of the ring kernel over
// one packed tile — so the baby powers are read and packed once per
// group, and the lane holds this many inner sums at once. At four the
// packing is a fifth of the call; past that the ciphertexts cost more
// than the packing saves, because every cold engine sizes them: on the
// routed_churn workload, where each operation meets one, four reads
// +0.6 % allocated bytes per operation and eight +1.3 %.
const groupSize = 4

// NewEvaluator interpolates lut and prepares the evaluation plan on the
// split chooseSplit picks for the context. The LUT modulus must equal the
// context's plaintext modulus.
func NewEvaluator(ctx *bfv.Context, lut *LUT) (*Evaluator, error) {
	if lut.T != ctx.Params.T {
		return nil, fmt.Errorf("fbs: LUT modulus %d != plaintext modulus %d", lut.T, ctx.Params.T)
	}
	s, err := chooseSplit(int(lut.T), ctx.SumCapacity())
	if err != nil {
		return nil, err
	}
	return newEvaluator(ctx, lut, s), nil
}

// newEvaluator compiles lut on the split s.
func newEvaluator(ctx *bfv.Context, lut *LUT, s split) *Evaluator {
	e := &Evaluator{ctx: ctx, plan: plan{coeffs: make([]uint64, s.gs*s.bs), split: s, mids: make([][]int, s.g2)}}
	copy(e.coeffs, lut.Interpolate())
	// The ladders are built whole, each rung one product finished once.
	e.CMults, e.extensions = s.ladders()
	e.finishes = e.CMults
	final := 0 // products in the final sum
	for a2 := range e.mids {
		first := a2 * s.g1
		var rows []int
		for a := first + 1; a < min(first+s.g1, s.gs); a++ {
			if e.countRow(a) {
				rows = append(rows, a)
			}
		}
		// One extension and one product per inner sum a power of y meets.
		products := len(rows)
		e.CMults += products
		e.extensions += products
		direct := e.countRow(first)
		if a2 == 0 {
			// The products of mid₀ are terms of the final sum, its inner sum
			// inner_{0,0} is the head.
			e.mids[0], e.head = rows, direct
			final += products
			continue
		}
		if direct {
			rows = append(rows, first)
		}
		if len(rows) == 0 {
			continue
		}
		// The middle sum: its parts added up, finished if it holds a
		// product, extended and multiplied by z^a₂.
		e.mids[a2] = rows
		e.HAdds += len(rows) - 1
		if products > 0 {
			e.finishes++
		}
		e.CMults++
		e.extensions++
		final++
	}
	// The result: the final sum, finished once, and the head.
	parts := final
	if final > 0 {
		e.finishes++
	}
	if e.head {
		parts++
	}
	e.HAdds += max(parts-1, 0)
	return e
}

// countRow adds the scalar products and the additions inside inner sum a
// to the plan's counts and reports whether it has a term. The term
// c_{a·bs} is a constant: an addition, not a scalar product.
func (e *Evaluator) countRow(a int) bool {
	n := 0
	for b, c := range e.coeffs[a*e.bs : (a+1)*e.bs] {
		if c != 0 {
			n++
			if b > 0 {
				e.SMults++
			}
		}
	}
	e.HAdds += max(n-1, 0)
	return n > 0
}

// Steps reports the (babySteps, giantSteps) split; the giant steps are
// the digits a₁ + g₁·a₂ together.
func (e *Evaluator) Steps() (int, int) { return e.bs, e.gs }

// Scratch is the per-caller state of an evaluation: the power ladders as
// ciphertexts and operands and the fan-out lanes with their partial sums
// and inner sums. It is sized on first use by the plan it runs (B limbs
// only for the powers that become operands) and reused while the context
// and split stay the same. Distinct Scratches over one
// Evaluator may run concurrently; a single Scratch may not.
type Scratch struct {
	ctx *bfv.Context
	split

	// powers[k] = x^k for k ≤ bs (powers[0] is the constant 1, the noiseless
	// ciphertext (Δ, 0); powers[1] the caller's input), ys[k] = y^k for k ≤
	// yTop (ys[1] is powers[bs]), zs[k] = z^k for k < g₂ (zs[1] is ys[g₁]);
	// the Op slices hold the extensions, nil where no product reads the
	// power.
	powers, ys, zs       []*bfv.Ciphertext
	powerOps, yOps, zOps []*bfv.Operand

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

	// Fan-out lanes of the ladder levels and the middle sums, keyed to the
	// evaluator passed to EvaluateWith and reused while it stays the same.
	base  *bfv.Evaluator
	lanes *par.Pool[*lane]
}

// lane is one worker of the fan-outs: a ShallowCopy'd evaluator (own
// scratch arena, the packed tile and weights of the scalar sums in it)
// and an accumulator — the one product of a ladder rung, then the
// products of the middle sum the lane is working on — plus, for the
// middle sums, the inner sums of the current group with their rows of the
// coefficient matrix, the operand each inner sum and each middle sum is
// extended into in turn, the finished products of a middle sum, and the
// lane's part of the final sum. A lane is only ever touched by the worker
// slot it belongs to.
type lane struct {
	ev    *bfv.Evaluator
	sums  [groupSize]*bfv.Ciphertext
	ks    [groupSize][]uint64
	op    *bfv.Operand
	acc   *bfv.Accumulator
	mid   *bfv.Ciphertext
	final *bfv.Accumulator
}

// NewScratch returns evaluation state for one concurrent caller.
func NewScratch() *Scratch { return &Scratch{} }

// fit sizes the scratch for e's context and split and binds its lanes to
// ev.
func (sc *Scratch) fit(e *Evaluator, ev *bfv.Evaluator) {
	if sc.ctx != e.ctx || sc.split != e.split {
		ctx, s := e.ctx, e.split
		*sc = Scratch{ctx: ctx, split: s}
		sc.powers, sc.powerOps = make([]*bfv.Ciphertext, s.bs+1), make([]*bfv.Operand, s.bs+1)
		sc.powers[0] = ctx.NewCiphertext()
		for i, limb := range sc.powers[0].C0.Coeffs {
			// Δ·1 is a constant polynomial: Δ in every NTT slot.
			for j := range limb {
				limb[j] = ctx.DeltaQi[i]
			}
		}
		for k := 2; k <= s.bs; k++ {
			sc.powers[k] = ctx.NewCiphertext()
		}
		for k := 1; k <= (s.bs+1)/2; k++ {
			sc.powerOps[k] = ctx.NewOperand()
		}
		sc.powerOps[s.bs] = ctx.NewOperand()
		sc.ys, sc.yOps = newLadder(ctx, sc.powers[s.bs], sc.powerOps[s.bs], s.yTop())
		if s.g2 > 1 {
			sc.zs, sc.zOps = newLadder(ctx, sc.ys[s.g1], sc.yOps[s.g1], s.g2-1)
		}
		sc.errs = make([]error, max(s.bs, s.g1, s.g2))
		sc.step = func(w, i int) {
			// Writes rung lo+i, errs[i] and the lane it is handed; the rungs
			// it reads belong to earlier levels.
			ln, lv := sc.lanes.Get(w), &sc.level
			sc.errs[i] = ladderStep(ln.ev, ln.acc, lv.cts, lv.ops, lv.lo+i)
		}
	}
	if sc.lanes == nil || sc.base != ev {
		sc.base = ev
		ctx := sc.ctx
		sc.lanes = par.NewPool(func() *lane {
			ln := &lane{ev: ev.ShallowCopy(), op: ctx.NewOperand(), acc: ctx.NewAccumulator(), mid: ctx.NewCiphertext(), final: ctx.NewAccumulator()}
			for i := range ln.sums {
				ln.sums[i] = ctx.NewCiphertext()
			}
			return ln
		})
	}
}

// newLadder allocates rungs 2 … top of a power ladder above the given
// rung 1, every rung with its operand.
func newLadder(ctx *bfv.Context, ct *bfv.Ciphertext, op *bfv.Operand, top int) ([]*bfv.Ciphertext, []*bfv.Operand) {
	cts, ops := make([]*bfv.Ciphertext, top+1), make([]*bfv.Operand, top+1)
	cts[1], ops[1] = ct, op
	for k := 2; k <= top; k++ {
		cts[k], ops[k] = ctx.NewCiphertext(), ctx.NewOperand()
	}
	return cts, ops
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
	sc.lanes.Each(func(ln *lane) { ln.acc.Reset(); ln.final.Reset() })

	// Baby powers x^2 … x^bs, then y^2 … y^yTop with y = x^bs and z^2 …
	// z^(g₂−1) with z = y^g₁, each the product of its two balanced halves.
	sc.powers[1] = ct
	if err := ev.ExtendInto(ct, sc.powerOps[1]); err != nil {
		return nil, err
	}
	if err := sc.ladder(sc.powers, sc.powerOps, e.bs); err != nil {
		return nil, err
	}
	if err := sc.ladder(sc.ys, sc.yOps, e.yTop()); err != nil {
		return nil, err
	}
	if err := sc.ladder(sc.zs, sc.zOps, e.g2-1); err != nil {
		return nil, err
	}

	// Σ_{a₂} mid_{a₂}·z^{a₂}, a lane a middle sum at a time: the products
	// of every lane's middle sums by their powers of z, and those of mid₀
	// by the powers of y, are one sum — a part per lane, added in lane
	// order and finished once (split.terms products at most, which the
	// chooser held to the capacity).
	plan, errs, lanes := &e.plan, sc.errs[:e.g2], sc.lanes
	powers, yOps, zOps := sc.powers[:e.bs], sc.yOps, sc.zOps
	par.ForEach(e.g2, par.Options{MinGrain: 1}, func(w, i int) {
		// Writes only the lane it is handed; the plan and the power ladders
		// it reads are not written during the fan-out.
		errs[i] = plan.midProduct(lanes.Get(w), powers, yOps, zOps, i)
	})
	err := par.FirstErr(errs)
	ln := lanes.Get(0)
	lanes.Each(func(part *lane) {
		if part != ln && err == nil {
			err = ev.AddAccumulator(part.final, ln.final)
		}
	})
	if err != nil {
		return nil, err
	}
	res := e.ctx.NewCiphertext()
	if ln.final.Terms() > 0 {
		if err := ev.FinishInto(ln.final, res); err != nil {
			return nil, err
		}
	}
	// inner_{0,0}, which no product reads: one more scalar sum.
	if e.head {
		ln.ks[0] = e.coeffs[:e.bs]
		if err := ln.ev.MulScalarSums(powers, ln.ks[:1], ln.sums[:1]); err != nil {
			return nil, err
		}
		ev.AddInPlace(res, ln.sums[0])
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

// midProduct adds mid_{a₂} ⊗ z^{a₂} to the lane's part of the final sum
// or, for a₂ = 0, the products of mid₀ themselves. The giant steps of the
// middle sum are taken groupSize at a time: their inner sums are rows a
// of the coefficient matrix times the baby powers, one MulScalarSums
// call, then each but the step a₁ = 0 is extended and multiplied by
// y^{a₁}. That step comes last, so its inner sum is still in the lane
// when the products are finished and is where the middle sum is put
// together.
//
//lint:noalloc
func (p *plan) midProduct(ln *lane, powers []*bfv.Ciphertext, yOps, zOps []*bfv.Operand, a2 int) error {
	rows, first, acc := p.mids[a2], a2*p.g1, ln.acc
	if len(rows) == 0 {
		return nil
	}
	if a2 == 0 {
		acc = ln.final
	}
	for lo := 0; lo < len(rows); lo += groupSize {
		group := rows[lo:min(lo+groupSize, len(rows))]
		for i, a := range group {
			ln.ks[i] = p.coeffs[a*p.bs : (a+1)*p.bs]
		}
		sums := ln.sums[:len(group)]
		if err := ln.ev.MulScalarSums(powers, ln.ks[:len(group)], sums); err != nil {
			return err
		}
		for i, a := range group {
			if a == first {
				continue
			}
			if err := ln.ev.ExtendInto(sums[i], ln.op); err != nil {
				return err
			}
			if err := ln.ev.Accumulate(ln.op, yOps[a-first], acc); err != nil {
				return err
			}
		}
	}
	if a2 == 0 {
		return nil
	}
	mid := ln.mid
	if last := len(rows) - 1; rows[last] == first {
		mid = ln.sums[last%groupSize]
	}
	if acc.Terms() > 0 {
		if err := ln.ev.FinishInto(acc, ln.mid); err != nil {
			return err
		}
		if mid != ln.mid {
			ln.ev.AddInPlace(mid, ln.mid)
		}
	}
	if err := ln.ev.ExtendInto(mid, ln.op); err != nil {
		return err
	}
	return ln.ev.Accumulate(ln.op, zOps[a2], ln.final)
}
