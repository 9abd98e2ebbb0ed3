package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak requires every `go` statement to carry a provable termination
// signal: an unproven spawn is a goroutine that can outlive its owner
// silently — the leak class the runtime never reports. The proof rules
// mirror the shutdown protocols the serving tiers actually use:
//
//  1. WaitGroup accounting: the spawned body runs `defer wg.Done()` on
//     a sync.WaitGroup — the goroutine is awaited somewhere, so a hang
//     surfaces at Wait instead of leaking silently.
//  2. Closed-channel range: `for range ch` terminates when ch is
//     closed; accepted when close(ch) appears somewhere in the module
//     for that channel identity.
//  3. Bounded channel protocol: a body whose loops are all bounded
//     (a for with a condition, or a range over a non-channel), whose
//     sends go to buffered channels or sit in a select with a default,
//     and whose receives come from closed-somewhere channels,
//     ctx.Done(), or time.After/Tick — such a body cannot wedge on its
//     channel protocol and runs off its own end.
//  4. Cancellation select: a condition-less `for` loop is accepted when
//     it contains a select with a case receiving from ctx.Done() or a
//     closed-somewhere channel whose clause body returns or breaks —
//     the standard worker-loop shutdown shape.
//
// Channel identity reuses conc.go's variable resolution; buffered-ness
// and closed-ness come from the module-wide chanFacts scan. Operations
// on CFG-cold paths (inevitable panic or fresh-error return) are
// exempt, matching noalloc's warm/cold split. Spawns whose target
// cannot be resolved to a module body — function values, interface
// methods, stdlib calls — are findings: their termination is
// unknowable here. Calls inside a spawned body are assumed to return
// (termination is modeled through loop structure and channel protocol,
// not whole-program halting); the runtime leakcheck guard in the test
// suites backs up that blind spot. Suppress deliberate process-lifetime
// goroutines with //lint:allow goleak <reason>.
type GoLeak struct{}

// Name implements Pass.
func (*GoLeak) Name() string { return "goleak" }

// Doc implements Pass.
func (*GoLeak) Doc() string {
	return "every go statement needs a provable termination signal (WaitGroup.Done, closed-channel range, bounded channel protocol, or cancellation select)"
}

// goleakState shares the channel facts and memoized per-function
// verdicts across spawn sites.
type goleakState struct {
	prog  *Program
	facts *chanFacts
	decls map[*types.Func]*funcBody
	memo  map[*types.Func]string // "" = proven; otherwise the failure reason
}

// Run implements Pass.
func (p *GoLeak) Run(prog *Program) []Finding {
	st := &goleakState{
		prog:  prog,
		facts: collectChanFacts(prog),
		decls: prog.index().decls,
		memo:  map[*types.Func]string{},
	}

	var findings []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			pk := pkg
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if reason := st.checkSpawn(pk, g); reason != "" {
					findings = append(findings, Finding{Pass: "goleak", Pos: prog.Fset.Position(g.Pos()),
						Message: fmt.Sprintf("goroutine has no provable termination signal: %s (prove via WaitGroup.Done, closed-channel range, bounded channel protocol, or a cancellation select; suppress a process-lifetime goroutine with //lint:allow goleak <reason>)", reason)})
				}
				return true
			})
		}
	}
	return findings
}

// checkSpawn resolves the spawned body and proves (or fails) its
// termination. "" means proven.
func (st *goleakState) checkSpawn(pkg *Package, g *ast.GoStmt) string {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return st.proveBody(pkg, lit.Body)
	}
	callee := staticCalleeFunc(pkg, g.Call)
	if callee == nil {
		return "spawns a function value whose target is unknown statically"
	}
	fn := st.decls[callee]
	if fn == nil {
		return fmt.Sprintf("spawns %s, which has no analyzable body in this module", shortName(callee))
	}
	if got, ok := st.memo[callee]; ok {
		return got
	}
	st.memo[callee] = "" // in-progress: recursive spawns don't recurse forever
	reason := st.proveBody(fn.pkg, fn.body)
	if reason != "" {
		reason = fmt.Sprintf("%s %s", shortName(callee), reason)
	}
	st.memo[callee] = reason
	return reason
}

// proveBody applies the four proof rules to one spawned body. Nested
// function literals are atoms (their own spawns are checked at their
// own go statements), and warm/cold classification exempts operations
// on inevitable panic/error paths.
func (st *goleakState) proveBody(pkg *Package, body *ast.BlockStmt) string {
	if hasDeferredWaitGroupDone(pkg, body) {
		return "" // rule 1
	}
	cold := coldRanges(pkg, body)

	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if e.Cond == nil && !cold.covers(e.Pos()) && !st.hasCancellationCase(pkg, e.Body) {
				reason = st.describe(e.Pos(), "loops forever without a cancellation select case (ctx.Done() or a closed-somewhere channel, with return/break)")
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[e.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !cold.covers(e.Pos()) {
					if v, disp := lockIdent(pkg, e.X); v == nil || !st.facts.closed[v] {
						reason = st.describe(e.Pos(), fmt.Sprintf("ranges over channel %s, which is never closed in the module", nonEmpty(disp, "it")))
						return false
					}
				}
			}
		case *ast.SendStmt:
			// Sends that are select comms are judged at the select level
			// (a default or a guaranteed-ready sibling arm unblocks them).
			if !cold.covers(e.Pos()) && !st.insideSelect(body, e) && !st.bufferedChan(pkg, e.Chan) {
				reason = st.describe(e.Pos(), "sends on an unbuffered (or unknown-capacity) channel with no default case")
				return false
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && !cold.covers(e.Pos()) && !st.insideSelect(body, e) && !st.safeRecvSource(pkg, e.X) {
				reason = st.describe(e.Pos(), "receives from a channel that is never closed in the module")
				return false
			}
		case *ast.SelectStmt:
			if !cold.covers(e.Pos()) && !selectHasDefault(e) && !st.selectHasSafeRecv(pkg, e) {
				reason = st.describe(e.Pos(), "blocks in a select with no default and no guaranteed-ready case (ctx.Done(), time.After, or a closed-somewhere channel)")
				return false
			}
		}
		return true
	})
	return reason
}

func (st *goleakState) describe(pos token.Pos, what string) string {
	p := st.prog.Fset.Position(pos)
	return fmt.Sprintf("%s (line %d)", what, p.Line)
}

// hasCancellationCase reports whether a loop body contains a select
// with a guaranteed-eventually-ready receive whose clause exits the
// loop (return or break) — proof rule 4.
func (st *goleakState) hasCancellationCase(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil || !st.commIsSafeRecv(pkg, cc.Comm) {
				continue
			}
			if clauseExits(cc.Body) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// clauseExits reports whether a comm clause body returns or breaks.
func clauseExits(body []ast.Stmt) bool {
	exits := false
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			if exits {
				return false
			}
			switch e := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if e.Tok == token.BREAK {
					exits = true
				}
			}
			return !exits
		})
	}
	return exits
}

// commIsSafeRecv reports whether a select comm is a receive from a
// guaranteed-eventually-ready source.
func (st *goleakState) commIsSafeRecv(pkg *Package, comm ast.Stmt) bool {
	var recv *ast.UnaryExpr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			recv = u
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u
			}
		}
	}
	return recv != nil && st.safeRecvSource(pkg, recv.X)
}

// safeRecvSource reports whether ch is a channel that is guaranteed to
// become ready: ctx.Done(), time.After/Tick, a Timer/Ticker C field,
// or a channel identity that is closed somewhere in the module.
func (st *goleakState) safeRecvSource(pkg *Package, ch ast.Expr) bool {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		// The interface method Done() of context.Context lives in
		// package context; any other call is unproven.
		f := staticCalleeFunc(pkg, call)
		return isPkgFunc(f, "time", "After", "Tick") || isPkgFunc(f, "context", "Done")
	}
	if sel, ok := ch.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
		if s, ok := pkg.Info.Selections[sel]; ok {
			t := s.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "time" {
				return true // Timer.C / Ticker.C
			}
		}
	}
	v, _ := lockIdent(pkg, ch)
	return v != nil && st.facts.closed[v]
}

// bufferedChan reports whether ch resolves to a buffered-make identity.
func (st *goleakState) bufferedChan(pkg *Package, ch ast.Expr) bool {
	v, _ := lockIdent(pkg, ch)
	return v != nil && st.facts.buffered[v]
}

// insideSelect reports whether op is (part of) a select comm within
// body. Comm operations are judged at the select level instead of as
// standalone blocking sends/receives.
func (st *goleakState) insideSelect(body *ast.BlockStmt, op ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				continue
			}
			if cc.Comm.Pos() <= op.Pos() && op.End() <= cc.Comm.End() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// selectHasSafeRecv reports whether any comm of sel is a receive from a
// guaranteed-ready source (making the select itself terminate).
func (st *goleakState) selectHasSafeRecv(pkg *Package, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm != nil && st.commIsSafeRecv(pkg, cc.Comm) {
			return true
		}
	}
	return false
}

// hasDeferredWaitGroupDone reports whether body (outside nested
// function literals) defers a sync.WaitGroup Done.
func hasDeferredWaitGroupDone(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			found = isPkgFunc(staticCalleeFunc(pkg, d.Call), "sync", "Done")
		}
		return !found
	})
	return found
}

// posRanges is a set of source intervals (cold-block node spans).
type posRanges []struct{ lo, hi token.Pos }

func (r posRanges) covers(pos token.Pos) bool {
	for _, iv := range r {
		if iv.lo <= pos && pos <= iv.hi {
			return true
		}
	}
	return false
}

// coldRanges returns the source spans of body's CFG-cold nodes, so the
// structural walk can exempt operations on inevitable panic/error
// paths.
func coldRanges(pkg *Package, body *ast.BlockStmt) posRanges {
	cfg := BuildCFG(body)
	cold := cfg.ColdBlocks(panicDetector(pkg), coldReturnDetector(pkg))
	var out posRanges
	for blk := range cold {
		for _, n := range blk.Nodes {
			out = append(out, struct{ lo, hi token.Pos }{n.Pos(), n.End()})
		}
	}
	return out
}

// nonEmpty returns s, or fallback when s is empty.
func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
