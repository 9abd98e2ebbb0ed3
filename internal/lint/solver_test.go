package lint

import (
	"fmt"
	"go/types"
	"testing"
)

// TestSolverIndependentOfQueryOrder queries every declared fixture
// function on two fresh solvers, first to last and last to first: each
// pass's summary must come out the same either way. The recursive
// cycles of cyclealloc, cyclehold and cyclelock are entered at every
// member, so a member visited mid-cycle must not keep a partial answer.
func TestSolverIndependentOfQueryOrder(t *testing.T) {
	prog := fixture(t)
	idx, conc := prog.index(), prog.concurrency()
	var fns []*types.Func
	for _, fn := range idx.funcs {
		if fn.obj != nil {
			fns = append(fns, fn.obj)
		}
	}
	check := func(pass string, query func() func(*types.Func) string) {
		fwd, rev := query(), query()
		want := map[*types.Func]string{}
		for _, fn := range fns {
			want[fn] = fwd(fn)
		}
		for i := len(fns) - 1; i >= 0; i-- {
			if got := rev(fns[i]); got != want[fns[i]] {
				t.Errorf("%s summary of %s depends on query order:\nfirst to last: %s\nlast to first: %s",
					pass, shortName(fns[i]), want[fns[i]], got)
			}
		}
	}
	witness := func(sum func(*types.Func) *summary) func() func(*types.Func) string {
		return func() func(*types.Func) string {
			return idx.reaches(prog, sum)
		}
	}
	allocs := map[*types.Func]*summary{}
	check("noalloc", witness(func(fn *types.Func) *summary {
		if allocs[fn] == nil {
			allocs[fn] = buildAllocSummary(prog, idx.decls[fn])
		}
		return allocs[fn]
	}))
	check("blockhold", witness(conc.summaryOf))
	check("lockorder", func() func(*types.Func) string {
		st := &lockOrderState{prog: prog, conc: conc}
		st.acquired = newSolver(idx, st.acquires)
		return func(fn *types.Func) string {
			var chains []string
			for _, a := range st.acquired.get(fn) {
				chains = append(chains, a.chain)
			}
			return fmt.Sprint(chains)
		}
	})
	check("secrettaint", func() func(*types.Func) string {
		taint := taintSolver(prog)
		return func(fn *types.Func) string {
			r := taint.get(fn)
			return fmt.Sprint(r.retMask, r.sinkParams, r.sinkName, r.findings)
		}
	})
}
