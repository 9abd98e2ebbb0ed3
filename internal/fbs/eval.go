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
// x^⌈bs/2⌉ and every y^a). The baby step is a matrix product: the inner
// sums inner_a = Σ_{b≥1} c_{a·bs+b}·x^b are the gs × (bs−1) coefficient
// matrix times the matrix whose rows are the baby powers, computed a
// group of rows at a time (bfv.MulScalarSums). The giant-step sum
// Σ_{a≥1} inner_a ⊗ y^a is accumulated unreduced in the tensor basis —
// one partial sum per worker lane, added in lane order — and rescaled
// and relinearized once. Both ladders run level-parallel: powers m+1 …
// 2m read only 1 … m, so each doubling level fans out over the same
// lanes, every power still one product finished once on whichever lane
// computes it. The additions and the scalar sums are exact and a product
// does not depend on its evaluator's scratch, so the result is
// bit-identical at any GOMAXPROCS and for any grouping.
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
	// coeffs is the gs × bs coefficient matrix, row a holding c_{a·bs} …
	// c_{a·bs+bs−1} (zero past the polynomial's degree).
	coeffs []uint64
	bs, gs int
	// blocks lists the giant steps a ≥ 1 whose inner sum has a term.
	blocks []int
	// The terms no product reads, as weight rows: head is c_1 … c_{bs−1}
	// against x^1 … x^(bs−1) (giant step 0's inner sum), consts is c_{a·bs}
	// against y^a for a ≥ 1; nil when the row is all zero.
	head, consts []uint64
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

// NewEvaluator interpolates lut and prepares the evaluation plan. The
// LUT modulus must equal the context's plaintext modulus.
func NewEvaluator(ctx *bfv.Context, lut *LUT) (*Evaluator, error) {
	if lut.T != ctx.Params.T {
		return nil, fmt.Errorf("fbs: LUT modulus %d != plaintext modulus %d", lut.T, ctx.Params.T)
	}
	t := int(lut.T)
	bs := int(math.Ceil(math.Sqrt(float64(t))))
	gs := (t + bs - 1) / bs
	e := &Evaluator{ctx: ctx, plan: plan{coeffs: make([]uint64, gs*bs), bs: bs, gs: gs}}
	copy(e.coeffs, lut.Interpolate())
	if c := e.coeffs[0]; c != 0 {
		e.c0 = ctx.NewPlaintext()
		e.c0.Coeffs[0] = c
		e.HAdds++
	}
	// The two power ladders, then per giant step a ≥ 1 one block product
	// (unless the block has no x^b term) and the scalar terms: n − 1 adds
	// inside an n-term inner sum, one per term that lands on the result.
	e.CMults = e.bs - 1 + max(e.gs-2, 0)
	consts := make([]uint64, e.gs-1)
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
			if n > 0 {
				e.head = e.coeffs[1:e.bs]
			}
			continue
		}
		if n > 0 {
			e.blocks = append(e.blocks, a)
			e.HAdds += n - 1
		}
		if c := e.coeff(a, 0); c != 0 {
			consts[a-1], e.consts = c, consts
			e.SMults++
			e.HAdds++
		}
	}
	e.CMults += len(e.blocks)
	e.HAdds += max(len(e.blocks)-1, 0)
	return e, nil
}

// Steps reports the (babySteps, giantSteps) split.
func (e *Evaluator) Steps() (int, int) { return e.bs, e.gs }

// coeff returns c_{a·bs+b}.
//
//lint:noalloc
func (p *plan) coeff(a, b int) uint64 { return p.coeffs[a*p.bs+b] }

// Scratch is the per-caller state of an evaluation: the power ladders as
// ciphertexts and operands and the fan-out lanes with their partial sums
// and inner sums. It is sized on first use by the plan it runs (B limbs
// only for the powers that become operands) and reused while the context
// and split stay the same. Distinct Scratches over one
// Evaluator may run concurrently; a single Scratch may not.
type Scratch struct {
	ctx    *bfv.Context
	bs, gs int

	// powers[k] = x^k for k ≤ bs (powers[1] is the caller's input),
	// giants[a] = y^a (giants[1] is powers[bs]); the Op slices hold the
	// extensions, nil where no product reads the power.
	powers, giants     []*bfv.Ciphertext
	powerOps, giantOps []*bfv.Operand
	tmp                *bfv.Ciphertext // a second run's finished sum

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
// scratch arena, the packed tile and weights of the scalar sums in it)
// and an accumulator — the one product of a ladder rung, then the lane's
// partial sum of block products — plus, for the giant steps, the inner
// sums of the group it is working on with their rows of the coefficient
// matrix, and the operand each is extended into in turn. A lane is only
// ever touched by the worker slot it belongs to.
type lane struct {
	ev   *bfv.Evaluator
	sums [groupSize]*bfv.Ciphertext
	ks   [groupSize][]uint64
	op   *bfv.Operand
	acc  *bfv.Accumulator
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
		ctx := sc.ctx
		sc.lanes = par.NewPool(func() *lane {
			ln := &lane{ev: ev.ShallowCopy(), op: ctx.NewOperand(), acc: ctx.NewAccumulator()}
			for i := range ln.sums {
				ln.sums[i] = ctx.NewCiphertext()
			}
			return ln
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

	// Σ_{a≥1} inner_a ⊗ y^a with inner_a = Σ_{b≥1} c_{a·bs+b}·x^b, over
	// the giant steps that have an inner sum. A lane takes groupSize of
	// them at a time — one matrix call for the inner sums, then one
	// extension and one tensor product each — and adds them into its own
	// accumulator; the partial sums are added in lane order and finished
	// once per run of at most SumCapacity products (one run at every
	// shipped parameter shape).
	res := e.ctx.NewCiphertext()
	plan, powers, giantOps, lanes := &e.plan, sc.powers, sc.giantOps, sc.lanes
	for blocks, out := e.blocks, res; len(blocks) > 0; out = sc.tmp {
		run := blocks[:min(len(blocks), e.ctx.SumCapacity())]
		n := (len(run) + groupSize - 1) / groupSize
		errs := sc.errs[:n]
		par.ForEach(n, par.Options{MinGrain: 1}, func(w, i int) {
			// Writes only the lane it is handed; the plan and the power
			// ladders it reads are not written during the fan-out.
			group := run[i*groupSize : min((i+1)*groupSize, len(run))]
			errs[i] = plan.groupProducts(lanes.Get(w), powers, giantOps, group)
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
		if err := ev.FinishInto(acc, out); err != nil {
			return nil, err
		}
		if out != res {
			ev.AddInPlace(res, out)
		}
		blocks = blocks[len(run):]
	}

	// The terms no product reads, two more scalar sums, then c_0.
	if e.head != nil {
		if err := lanes.Get(0).addScalarSum(ev, sc.powers[1:e.bs], e.head, res); err != nil {
			return nil, err
		}
	}
	if e.consts != nil {
		if err := lanes.Get(0).addScalarSum(ev, sc.giants[1:], e.consts, res); err != nil {
			return nil, err
		}
	}
	if e.c0 != nil {
		ev.AddPlainInPlace(res, e.c0)
	}
	return res, nil
}

// addScalarSum sets res += Σ_k ks[k]·cts[k] through the lane's first
// inner sum.
//
//lint:noalloc
func (ln *lane) addScalarSum(ev *bfv.Evaluator, cts []*bfv.Ciphertext, ks []uint64, res *bfv.Ciphertext) error {
	ln.ks[0] = ks
	if err := ln.ev.MulScalarSums(cts, ln.ks[:1], ln.sums[:1]); err != nil {
		return err
	}
	ev.AddInPlace(res, ln.sums[0])
	return nil
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

// groupProducts adds inner_a ⊗ y^a to the lane's partial sum for every
// giant step a of group (at most groupSize, each with an inner sum): the
// inner sums are rows a of the coefficient matrix times the baby powers,
// one MulScalarSums call.
//
//lint:noalloc
func (p *plan) groupProducts(ln *lane, powers []*bfv.Ciphertext, giantOps []*bfv.Operand, group []int) error {
	for i, a := range group {
		ln.ks[i] = p.coeffs[a*p.bs+1 : (a+1)*p.bs]
	}
	sums := ln.sums[:len(group)]
	if err := ln.ev.MulScalarSums(powers[1:p.bs], ln.ks[:len(group)], sums); err != nil {
		return err
	}
	for i, a := range group {
		if err := ln.ev.ExtendInto(sums[i], ln.op); err != nil {
			return err
		}
		if err := ln.ev.Accumulate(ln.op, giantOps[a], ln.acc); err != nil {
			return err
		}
	}
	return nil
}
