package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statement-position calls that silently discard an error
// result in the serving, engine, and durability layers (internal/core,
// internal/serve, internal/cluster, internal/store and their
// subpackages). A dropped error there is a dropped frame, a
// leaked session slot, or a half-written wire message that surfaces
// minutes later as a protocol desync. An intentional discard must be
// spelled `_ = f()` (or carry a //lint:allow errdrop) so the reader can
// see the decision; deferred calls are exempt because `defer c.Close()`
// on the teardown path is the established idiom.
//
// fmt.Print/Printf/Println to stdout are exempt: their error is the
// terminal's problem. Writes to real writers (fmt.Fprintf and friends)
// are not.
type ErrDrop struct{}

// Name implements Pass.
func (*ErrDrop) Name() string { return "errdrop" }

// Doc implements Pass.
func (*ErrDrop) Doc() string {
	return "statement-position calls discarding an error result in internal/core, internal/serve, internal/cluster, and internal/store"
}

// errdropTier reports whether the package at module-relative path rel
// is under the pass's contract: the engine, serving, cluster, and
// durable-store tiers, where a dropped error is a dropped frame, a
// stale route, or a silently unsynced file.
func errdropTier(rel string) bool {
	for _, root := range []string{"internal/core", "internal/serve", "internal/cluster", "internal/store"} {
		if rel == root || strings.HasPrefix(rel, root+"/") {
			return true
		}
	}
	return false
}

// Run implements Pass.
func (p *ErrDrop) Run(prog *Program) []Finding {
	var findings []Finding
	for _, pkg := range prog.Packages {
		rel := relPkgPath(prog, pkg)
		if !errdropTier(rel) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if p.stdoutPrint(pkg, call) {
					return true
				}
				if pos, ok := p.dropsError(pkg, call); ok {
					findings = append(findings, Finding{
						Pass: "errdrop",
						Pos:  prog.Fset.Position(call.Pos()),
						Message: fmt.Sprintf("call discards its error result (%s): handle it, or write `_ = …` to mark the drop deliberate",
							pos),
					})
				}
				return true
			})
		}
	}
	return findings
}

// dropsError reports whether call returns an error (alone or as the last
// element of a tuple); the string names the discarded shape.
func (p *ErrDrop) dropsError(pkg *Package, call *ast.CallExpr) (string, bool) {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return "", false
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errType) {
			return fmt.Sprintf("result %d of %d is an error", t.Len(), t.Len()), true
		}
	default:
		if types.Identical(t, errType) {
			return "the sole result is an error", true
		}
	}
	return "", false
}

// stdoutPrint reports whether call is fmt.Print/Printf/Println.
func (p *ErrDrop) stdoutPrint(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	}
	return false
}
