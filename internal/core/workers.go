package core

import (
	"athena/internal/bfv"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/par"
)

// evalWorker bundles the single-goroutine state one evaluation thread
// needs to run any stage of the five-step pipeline: an evaluator (its
// scratch arena makes it single-caller), an encoder, packer, FBS and S2C
// staging, the ciphertexts a round and a window pass through, the
// staging of Steps ② and ③, and local operation counters. The
// engine owns one top-level worker (w0, wrapping the engine's own
// evaluator) plus a pool of ShallowCopy'd lanes that the operator-level
// fan-outs run on.
type evalWorker struct {
	e      *Engine
	ev     *bfv.Evaluator // FBS-level evaluator (pack + LUT ladders)
	evP    *bfv.Evaluator // post-level evaluator (mask, S2C, accumulation)
	codP   *bfv.Encoder   // post-level encoder (kernel/mask lifts)
	packSc *pack.Scratch
	fbsSc  *fbs.Scratch
	s2cSc  pack.TransformScratch
	// round stages a packed round at the FBS level through the LUT,
	// window a masked window at the post level through S2C; both are
	// built on first use.
	round, window *bfv.Ciphertext
	// pt and pm stage a one-shot post-level plaintext — a mask, a kernel,
	// a bias — from its encoding through its lift, mask a mask's slot
	// values; built on first use.
	pt   *bfv.Plaintext
	pm   *bfv.PlaintextMul
	mask []int64
	// rescale stages ModDown and Step ②'s modulus switch; sw holds the
	// qMid pair Step ② writes and Step ③'s ring switch, built on the
	// worker's first extract.
	rescale bfv.RescaleScratch
	sw      *lwe.Switcher
	table   []byte // a LUT's words, hashed into its key (lut)

	// stats accumulates this worker's operation counts; flushStats folds
	// them into Engine.Stats at the end of every public entry point.
	stats OpStats

	// canFork marks the top-level worker: only it may fan work across
	// the engine pool. Pooled lanes run nested operator loops serially,
	// so two lanes can never collide on the same worker slot.
	canFork bool
}

func (e *Engine) newWorker(ev, evP *bfv.Evaluator, codP *bfv.Encoder, canFork bool) *evalWorker {
	return &evalWorker{
		e:       e,
		ev:      ev,
		evP:     evP,
		codP:    codP,
		packSc:  e.packer.NewScratch(),
		fbsSc:   fbs.NewScratch(),
		canFork: canFork,
	}
}

// forEach runs f over [0, n), fanning across the engine's worker lanes
// when wk is the top-level worker and more than one lane is usable. On a
// pooled lane — or with one usable lane — it degrades to the serial loop
// on wk itself. Work is split into the fixed par.Partition
// blocks and f must only write i-indexed state, so results are
// bit-identical at any GOMAXPROCS.
func (wk *evalWorker) forEach(n int, f func(ln *evalWorker, i int)) {
	if !wk.canFork || par.Workers(n) <= 1 {
		for i := 0; i < n; i++ {
			f(wk, i)
		}
		return
	}
	lanes := wk.e.lanes
	par.ForEach(n, func(w, i int) { f(lanes.Get(w), i) })
}

// flushStats folds the per-worker operation counters into e.Stats. The
// counters are integer sums, so the totals are independent of how the
// work was partitioned; flushing at the end of every public entry point
// keeps the externally visible accumulation order fixed.
func (e *Engine) flushStats() {
	flush := func(wk *evalWorker) {
		e.Stats.Add(wk.stats)
		wk.stats = OpStats{}
	}
	flush(e.w0)
	e.lanes.Each(flush)
}

// plain returns the worker's post-level plaintext staging, valid until
// its next use.
func (wk *evalWorker) plain() (*bfv.Plaintext, *bfv.PlaintextMul) {
	if wk.pt == nil {
		ctxP := wk.e.ctxP
		wk.pt = ctxP.NewPlaintext()
		wk.pm = &bfv.PlaintextMul{Value: ctxP.RingQ.NewPoly()}
		wk.mask = make([]int64, wk.e.Ctx.N)
	}
	return wk.pt, wk.pm
}
