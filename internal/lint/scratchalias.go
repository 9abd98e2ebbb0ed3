package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ScratchAlias guards the ShallowCopy concurrency contract: the mutable
// per-worker scratch state (bfv.Evaluator arenas, Encoders, pack.Scratch,
// pack.TransformScratch, lwe.Switcher — anything with a ShallowCopy
// method or holding such a value) must not be shared across the closures
// that par.ForEach and par.NewPool run from several goroutines. parsafe
// already catches raw captured *writes*; this pass catches the subtler
// aliasing bugs where a captured scratch pointer is handed onward — a
// method call, a call argument, a struct literal, a fresh alias — and two
// workers end up stomping the same staging buffers.
//
// A "scratch type" is a module-declared named type that has a
// ShallowCopy method, is named Encoder or Switcher, has a name ending in
// Scratch, or is a struct holding such a type (transitively). par.Pool
// itself is exempt: it is the approved mutex-guarded distributor of
// per-worker scratch.
//
// Inside a worker closure, a captured scratch value may be used as:
//
//   - the receiver of ShallowCopy (that is the blessed fork),
//   - a plain read of a non-scratch field (immutable plan/config data),
//   - an element selected through an index that involves a closure-local
//     variable (per-worker indexing, e.g. lanes[w]).
//
// Every other use — calling any other method on it, passing it to a
// function, storing it in a composite literal, re-aliasing it with an
// assignment, taking its address, returning it — is flagged. Calls that
// are genuinely safe (read-only methods, state guarded by the pool's
// own mutex) get a justified //lint:allow scratchalias.
type ScratchAlias struct{}

// Name implements Pass.
func (*ScratchAlias) Name() string { return "scratchalias" }

// Doc implements Pass.
func (*ScratchAlias) Doc() string {
	return "mutable scratch (ShallowCopy types) captured and shared across par.ForEach / par.NewPool worker closures"
}

// Run implements Pass.
func (p *ScratchAlias) Run(prog *Program) []Finding {
	var findings []Finding
	memo := map[types.Type]int{} // 0 unknown, 1 visiting/false, 2 true, 3 false
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, lit := parClosure(pkg, call); lit != nil {
						findings = append(findings, p.checkClosure(prog, pkg, lit, memo)...)
					}
				}
				return true
			})
		}
	}
	return findings
}

// checkClosure flags escaping uses of captured scratch values inside one
// worker closure.
func (p *ScratchAlias) checkClosure(prog *Program, pkg *Package, lit *ast.FuncLit, memo map[types.Type]int) []Finding {
	parents := parentMap(lit.Body)
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	var findings []Finding
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, name, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		findings = append(findings, Finding{
			Pass: "scratchalias",
			Pos:  prog.Fset.Position(pos),
			Message: fmt.Sprintf("captured scratch %q %s inside a worker closure: fork it with ShallowCopy or select per-worker state (lanes.Get(w), s[w])",
				name, what),
		})
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || local(v) || v.IsField() {
			return true
		}
		if !isScratchType(prog, v.Type(), memo) {
			return true
		}
		p.classifyUse(pkg, id, parents, local, memo, prog, report)
		return true
	})
	return findings
}

// classifyUse walks up from a captured scratch identifier and decides
// whether the use escapes the closure's per-worker discipline.
func (p *ScratchAlias) classifyUse(pkg *Package, id *ast.Ident, parents map[ast.Node]ast.Node,
	local func(types.Object) bool, memo map[types.Type]int, prog *Program,
	report func(token.Pos, string, string)) {

	var node ast.Node = id
	for {
		parent := parents[node]
		if parent == nil {
			return
		}
		switch pe := parent.(type) {
		case *ast.ParenExpr:
			node = pe
			continue
		case *ast.SelectorExpr:
			if pe.X != node {
				return // we are the Sel of someone else's selector
			}
			// Method call x.M(...)?
			if call, ok := parents[pe].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == pe {
				if pe.Sel.Name == "ShallowCopy" {
					return // the blessed per-worker fork
				}
				report(id.Pos(), id.Name, fmt.Sprintf("receives method call .%s", pe.Sel.Name))
				return
			}
			if sel, ok := pkg.Info.Selections[pe]; ok && sel.Kind() == types.MethodVal {
				report(id.Pos(), id.Name, fmt.Sprintf("escapes as method value .%s", pe.Sel.Name))
				return
			}
			// Plain field read: safe unless the field itself is scratch,
			// in which case the alias continues and we keep walking.
			if tv, ok := pkg.Info.Types[pe]; ok && tv.Type != nil && isScratchType(prog, tv.Type, memo) {
				node = pe
				continue
			}
			return
		case *ast.IndexExpr:
			if pe.X != node {
				return // we appear in the index expression: length math
			}
			if indexMentionsLocal(pkg, pe.Index, local) {
				return // per-worker element selection
			}
			node = pe // fixed-position element: alias continues
			continue
		case *ast.SliceExpr, *ast.StarExpr:
			node = pe.(ast.Expr)
			continue
		case *ast.UnaryExpr:
			if pe.Op == token.AND {
				report(id.Pos(), id.Name, "has its address taken")
				return
			}
			return
		case *ast.CallExpr:
			for _, arg := range pe.Args {
				if ast.Unparen(arg) == node {
					report(id.Pos(), id.Name, "is passed as a call argument")
					return
				}
			}
			return
		case *ast.CompositeLit:
			report(id.Pos(), id.Name, "is stored in a composite literal")
			return
		case *ast.KeyValueExpr:
			if pe.Value == node {
				report(id.Pos(), id.Name, "is stored in a composite literal")
			}
			return
		case *ast.AssignStmt:
			for _, rhs := range pe.Rhs {
				if ast.Unparen(rhs) == node {
					report(id.Pos(), id.Name, "is re-aliased by an assignment")
					return
				}
			}
			return
		case *ast.ReturnStmt:
			report(id.Pos(), id.Name, "is returned from the closure")
			return
		default:
			return
		}
	}
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// isScratchType reports whether t is (or points to, or holds) mutable
// per-worker scratch. Memoized; cycles resolve to false.
func isScratchType(prog *Program, t types.Type, memo map[types.Type]int) bool {
	t = derefAll(t)
	switch memo[t] {
	case 2:
		return true
	case 1, 3:
		return false
	}
	memo[t] = 1 // visiting
	res := scratchTypeUncached(prog, t, memo)
	if res {
		memo[t] = 2
	} else {
		memo[t] = 3
	}
	return res
}

func scratchTypeUncached(prog *Program, t types.Type, memo map[types.Type]int) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if !moduleMember(prog, obj.Pkg()) {
		return false
	}
	// par.Pool is the approved distributor, not scratch itself.
	if obj.Name() == "Pool" && isParPkg(obj.Pkg()) {
		return false
	}
	if name := obj.Name(); name == "Encoder" || name == "Switcher" || strings.HasSuffix(name, "Scratch") {
		return true
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "ShallowCopy" {
			return true
		}
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if isScratchType(prog, st.Field(i).Type(), memo) {
				return true
			}
		}
	}
	return false
}

// derefAll strips pointer/slice/array wrappers down to the element type.
func derefAll(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
}
