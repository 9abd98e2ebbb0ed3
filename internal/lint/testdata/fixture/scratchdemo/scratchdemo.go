// Package scratchdemo seeds scratchalias violations: mutable per-worker
// scratch captured and shared across par.ForEach / par.NewPool closures.
package scratchdemo

import (
	"fixture/internal/bfv"
	"fixture/internal/par"
)

// worker wraps scratch, so it is transitively scratch itself.
type worker struct {
	ev *bfv.Evaluator
}

// BadSharedCall calls a mutating method on one captured evaluator from
// every worker: the canonical aliasing race.
func BadSharedCall(ev *bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		xs[i] = ev.Apply(xs[i]) // want scratchalias
	})
}

// BadEscape hands the captured scratch to another function.
func BadEscape(ev *bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		xs[i] = consume(ev, xs[i]) // want scratchalias
	})
}

// BadAlias re-aliases the captured scratch inside the closure; the alias
// then mutates shared state invisibly to parsafe.
func BadAlias(ev *bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		mine := ev // want scratchalias
		xs[i] = mine.Apply(xs[i])
	})
}

// BadFixedIndex selects a fixed element of the scratch slice, so every
// worker still shares lanes[0].
func BadFixedIndex(lanes []*bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		xs[i] = lanes[0].Apply(xs[i]) // want scratchalias
	})
}

// GoodShallowCopy forks per call: the blessed pattern for NewPool.
func GoodShallowCopy(ev *bfv.Evaluator) *par.Pool[*worker] {
	return par.NewPool(func() *worker {
		return &worker{ev: ev.ShallowCopy()}
	})
}

// GoodPerWorkerIndex selects this worker's lane: index-derived access.
func GoodPerWorkerIndex(lanes []*bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		xs[i] = lanes[w].Apply(xs[i])
	})
}

// GoodPool distributes scratch through par.Pool, which is exempt.
func GoodPool(pool *par.Pool[*worker], xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		xs[i] = pool.Get(w).ev.Apply(xs[i])
	})
}

// ReadOnlyPlan only reads immutable configuration, but that is a
// dynamic property the pass cannot prove: the finding is a false
// positive and carries the justified escape hatch.
func ReadOnlyPlan(ev *bfv.Evaluator, xs []uint64) {
	par.ForEach(len(xs), func(w, i int) {
		//lint:allow scratchalias Plan only reads the buffer length; no scratch is written
		xs[i] += uint64(ev.Plan())
	})
}

func consume(ev *bfv.Evaluator, x uint64) uint64 { return ev.Apply(x) }
