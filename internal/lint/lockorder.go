package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// LockOrder is the interprocedural deadlock pass: it composes every
// function's mutex acquisitions (conc.go summaries) into one
// module-wide lock-order graph and reports
//
//   - re-acquisition: taking a mutex that the may-held analysis says is
//     already held — directly, or through a static call chain that
//     reaches another Lock of the same identity (sync.Mutex is not
//     reentrant; RLock-upgrade and RLock-after-Lock count too, since a
//     queued writer deadlocks both), and
//   - order cycles: a directed edge A → B is recorded whenever B is
//     acquired (directly or via calls) while A is held; any cycle in
//     the edge graph is a potential deadlock. Each edge on the cycle
//     gets one finding carrying its own witness chain plus the cycle,
//     so both (or all) implicated sites are visible — the two witness
//     chains of an AB/BA inversion land on the two offending lines.
//
// Lock identity is the *types.Var behind the expression (struct field,
// package var, or local), so every instance of a type shares one node —
// the right granularity for ordering discipline, at the cost of
// conservatively merging hand-over-hand locking over distinct
// instances (the repo has none). TryLock never blocks and contributes
// no edges. Function literals contribute their internal edges to the
// global graph (they run eventually, on some goroutine) but are atoms
// to their enclosing function's flow.
type LockOrder struct{}

// Name implements Pass.
func (*LockOrder) Name() string { return "lockorder" }

// Doc implements Pass.
func (*LockOrder) Doc() string {
	return "module-wide mutex acquisition-order graph must be acyclic and re-acquisition-free (interprocedural, CFG-based)"
}

// lockEdge is one direction of the order graph with its first witness.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
	witness  string
}

// transAcq is one mutex transitively acquired by a function, with the
// call chain that reaches its Lock.
type transAcq struct {
	mu    *types.Var
	chain string
}

// lockOrderState carries the composed graph.
type lockOrderState struct {
	prog *Program
	conc *concIndex

	edges   []*lockEdge
	edgeIdx map[[2]*types.Var]*lockEdge
	adj     map[*types.Var][]*lockEdge

	acquired *solver[[]transAcq]
}

// Run implements Pass.
func (p *LockOrder) Run(prog *Program) []Finding {
	st := &lockOrderState{
		prog:    prog,
		conc:    prog.concurrency(),
		edgeIdx: map[[2]*types.Var]*lockEdge{},
		adj:     map[*types.Var][]*lockEdge{},
	}
	st.acquired = newSolver(prog.index(), st.acquires)
	disp := st.conc.disp
	var findings []Finding
	for i, fn := range prog.index().funcs {
		sum := st.conc.sums[i]
		for _, a := range sum.acquires {
			site := fmt.Sprintf("%s acquires %s at %s", fn.name, disp[a.mu], shortPos(prog, a.pos))
			for _, h := range a.held {
				if h == a.mu {
					findings = append(findings, Finding{Pass: "lockorder", Pos: prog.Fset.Position(a.pos),
						Message: fmt.Sprintf("%s re-acquired while already held (sync mutexes are not reentrant): %s", disp[a.mu], site)})
					continue
				}
				st.addEdge(h, a.mu, a.pos, site+fmt.Sprintf(" while holding %s", disp[h]))
			}
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, t := range st.acquired.get(c.callee) {
				site := fmt.Sprintf("%s calls %s at %s → %s", fn.name, shortName(c.callee), shortPos(prog, c.pos), t.chain)
				for _, h := range c.held {
					if h == t.mu {
						findings = append(findings, Finding{Pass: "lockorder", Pos: prog.Fset.Position(c.pos),
							Message: fmt.Sprintf("call re-acquires %s, already held here (sync mutexes are not reentrant): %s", disp[t.mu], site)})
						continue
					}
					st.addEdge(h, t.mu, c.pos, site+fmt.Sprintf(" while holding %s", disp[h]))
				}
			}
		}
	}

	findings = append(findings, st.cycleFindings()...)
	return findings
}

// addEdge records from → to once, keeping the first witness.
func (st *lockOrderState) addEdge(from, to *types.Var, pos token.Pos, witness string) {
	key := [2]*types.Var{from, to}
	if st.edgeIdx[key] != nil {
		return
	}
	e := &lockEdge{from: from, to: to, pos: pos, witness: witness}
	st.edges = append(st.edges, e)
	st.edgeIdx[key] = e
	st.adj[from] = append(st.adj[from], e)
}

// acquires is the solver step of the set of mutexes fn transitively
// acquires through static module calls: its own Lock sites, then each
// callee's set in call order, every mutex keeping the first chain that
// reached it.
func (st *lockOrderState) acquires(fn *funcBody, out *[]transAcq) bool {
	n := len(*out)
	add := func(mu *types.Var, chain string) {
		if !slices.ContainsFunc(*out, func(t transAcq) bool { return t.mu == mu }) {
			*out = append(*out, transAcq{mu: mu, chain: chain})
		}
	}
	sum := st.conc.byFunc[fn.obj]
	for _, a := range sum.acquires {
		add(a.mu, fmt.Sprintf("%s acquires %s at %s", shortName(fn.obj), st.conc.disp[a.mu], shortPos(st.prog, a.pos)))
	}
	for _, c := range sum.calls {
		for _, t := range st.acquired.get(c.callee) {
			add(t.mu, fmt.Sprintf("%s calls %s at %s → %s", shortName(fn.obj), shortName(c.callee), shortPos(st.prog, c.pos), t.chain))
		}
	}
	return len(*out) > n
}

// cycleFindings detects cycles in the edge graph and emits one finding
// per participating edge. Each cycle is reported once, keyed by the
// sorted set of lock names on it.
func (st *lockOrderState) cycleFindings() []Finding {
	var findings []Finding
	reported := map[string]bool{}
	for _, e := range st.edges {
		path := st.findPath(e.to, e.from)
		if path == nil {
			continue
		}
		cycle := append([]*lockEdge{e}, path...)
		names := make([]string, len(cycle))
		for i, ce := range cycle {
			names[i] = st.conc.disp[ce.from]
		}
		key := canonicalCycle(names)
		if reported[key] {
			continue
		}
		reported[key] = true
		ring := strings.Join(append(names, names[0]), " → ")
		for _, ce := range cycle {
			others := make([]string, 0, len(cycle)-1)
			for _, oe := range cycle {
				if oe != ce {
					others = append(others, oe.witness)
				}
			}
			findings = append(findings, Finding{Pass: "lockorder", Pos: st.prog.Fset.Position(ce.pos),
				Message: fmt.Sprintf("potential deadlock: lock-order cycle %s. This edge: %s. Completing edge(s): %s",
					ring, ce.witness, strings.Join(others, "; "))})
		}
	}
	return findings
}

// findPath returns the edges of one path from → to (BFS over insertion
// order, so deterministic), or nil.
func (st *lockOrderState) findPath(from, to *types.Var) []*lockEdge {
	type hop struct {
		v    *types.Var
		via  *lockEdge
		prev *hop
	}
	visited := map[*types.Var]bool{from: true}
	queue := []*hop{{v: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.v == to {
			var path []*lockEdge
			for h := cur; h.via != nil; h = h.prev {
				path = append([]*lockEdge{h.via}, path...)
			}
			return path
		}
		for _, e := range st.adj[cur.v] {
			if !visited[e.to] {
				visited[e.to] = true
				queue = append(queue, &hop{v: e.to, via: e, prev: cur})
			}
		}
	}
	return nil
}

// canonicalCycle keys a cycle independent of its starting point.
func canonicalCycle(names []string) string {
	return strings.Join(slices.Sorted(slices.Values(names)), "|")
}
