package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ParSafe checks the closures handed to par.ForWork and par.Chunks
// (and par.ForN, which the recognizer still knows). Those helpers run
// the closure concurrently from several goroutines, so the fork-join
// determinism contract is: a closure may only write state derived from
// its own iteration index. The pass flags, inside such closures:
//
//   - assignments (incl. op-assign, ++/--) to captured variables:
//     `sum += x`, `s = append(s, v)` — classic fan-in races;
//   - writes through captured maps: Go maps are unsafe under any
//     concurrent write, indexed or not;
//   - writes to elements of captured slices whose index involves
//     neither a closure parameter nor a closure-local variable:
//     `out[0] = v` races, `out[i] = v` does not.
//
// Reads of captured state are fine, as are writes to variables declared
// inside the closure.
type ParSafe struct{}

// Name implements Pass.
func (*ParSafe) Name() string { return "parsafe" }

// Doc implements Pass.
func (*ParSafe) Doc() string {
	return "non-index-derived shared-state writes inside par.ForWork / par.Chunks closures"
}

// Run implements Pass.
func (p *ParSafe) Run(prog *Program) []Finding {
	var findings []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch fn, lit := parClosure(pkg, call); fn {
					case "ForN", "ForWork", "Chunks":
						findings = append(findings, p.checkClosure(prog, pkg, fn, lit)...)
					}
				}
				return true
			})
		}
	}
	return findings
}

// parClosure is the one recognizer of worker closures handed to the par
// package, for parsafe and scratchalias: it returns the helper's name
// and the function literal — the last argument of ForN, ForWork, Chunks
// and ForEach (ForWork takes an itemCost between n and the closure), the
// first of NewPool — or "" and nil. ForN is gone from the module's par
// but still declared by the fixture's.
func parClosure(pkg *Package, call *ast.CallExpr) (string, *ast.FuncLit) {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation par.NewPool[T]
		fun = ast.Unparen(ix.X)
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return "", nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isParPkg(fn.Pkg()) {
		return "", nil
	}
	arg := call.Args[len(call.Args)-1]
	switch fn.Name() {
	case "ForN", "ForWork", "Chunks", "ForEach":
	case "NewPool":
		arg = call.Args[0]
	default:
		return "", nil
	}
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return fn.Name(), lit
	}
	return "", nil
}

// isParPkg reports whether pkg is a par package (the module's, or a
// fixture's stand-in).
func isParPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "par" || strings.HasSuffix(pkg.Path(), "/par"))
}

// checkClosure inspects one worker closure for shared-state writes.
func (p *ParSafe) checkClosure(prog *Program, pkg *Package, parFn string, lit *ast.FuncLit) []Finding {
	var findings []Finding
	report := func(n ast.Node, what string) {
		findings = append(findings, Finding{
			Pass: "parsafe",
			Pos:  prog.Fset.Position(n.Pos()),
			Message: fmt.Sprintf("par.%s closure %s: workers may only write index-derived state (write through the loop index, or accumulate per-worker and merge after the join)",
				parFn, what),
		})
	}
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				p.checkWrite(pkg, lhs, local, report)
			}
		case *ast.IncDecStmt:
			p.checkWrite(pkg, st.X, local, report)
		}
		return true
	})
	return findings
}

// checkWrite classifies one write target. local reports whether an
// object is declared inside the closure (parameters included).
func (p *ParSafe) checkWrite(pkg *Package, lhs ast.Expr, local func(types.Object) bool, report func(ast.Node, string)) {
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if obj := objOf(pkg, e); obj != nil && !local(obj) {
			report(e, fmt.Sprintf("assigns to captured variable %q", e.Name))
		}
	case *ast.IndexExpr:
		base := rootIdent(e.X)
		if base == nil {
			return
		}
		obj := pkg.Info.Uses[base]
		if obj == nil || local(obj) {
			return
		}
		if isMapExpr(pkg, e.X) {
			report(e, fmt.Sprintf("writes captured map %q", base.Name))
			return
		}
		if !indexMentionsLocal(pkg, e.Index, local) {
			report(e, fmt.Sprintf("writes captured slice %q at a shared (non-index-derived) position", base.Name))
		}
	case *ast.SelectorExpr:
		// Field write: safe only when the path to the field goes through
		// an index-derived element or a closure-local root.
		if w, shared := p.sharedFieldWrite(pkg, e, local); shared {
			report(e, w)
		}
	case *ast.StarExpr:
		base := rootIdent(e.X)
		if base == nil {
			return
		}
		if obj := pkg.Info.Uses[base]; obj != nil && !local(obj) {
			report(e, fmt.Sprintf("writes through captured pointer %q", base.Name))
		}
	}
}

// sharedFieldWrite walks selector/index chains like a.b[i].c; the write
// is shared when no link in the chain is index-derived and the root is
// captured.
func (p *ParSafe) sharedFieldWrite(pkg *Package, sel *ast.SelectorExpr, local func(types.Object) bool) (string, bool) {
	expr := ast.Expr(sel)
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			// A selector on a package name is not a field write target we
			// can reason about; skip qualified identifiers.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return "", false
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			if indexMentionsLocal(pkg, e.Index, local) {
				return "", false // lands in this iteration's element
			}
			expr = e.X
		case *ast.CallExpr, *ast.StarExpr:
			return "", false // too dynamic to judge; stay silent
		case *ast.Ident:
			obj := pkg.Info.Uses[e]
			if obj == nil || local(obj) {
				return "", false
			}
			return fmt.Sprintf("writes field of captured variable %q", e.Name), true
		default:
			return "", false
		}
	}
}

// indexMentionsLocal reports whether idx references at least one
// closure-local variable or parameter — the index-derived test.
func indexMentionsLocal(pkg *Package, idx ast.Expr, local func(types.Object) bool) bool {
	found := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			v, isVar := objOf(pkg, id).(*types.Var)
			found = isVar && local(v)
		}
		return !found
	})
	return found
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
