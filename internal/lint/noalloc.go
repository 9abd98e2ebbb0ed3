package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc is the interprocedural allocation pass enforcing the
// steady-state GC-free contract on the serving hot paths: a function
// whose doc comment carries
//
//	//lint:noalloc
//
// is proven free of heap-allocating constructs, and so is everything it
// transitively calls through static module calls — per-function
// summaries chased by the index's first-witness query (index.go), so one
// annotation on a kernel entry point covers its whole call tree.
//
// Allocating constructs: make/new, slice and map composite literals,
// &T{...} (address of a composite escapes), append (backing-array
// growth), binary.*.AppendUint* (same), string concatenation and
// string<->[]byte/[]rune conversions, conversion to an interface type
// (boxing), function literals (closure capture), method values
// (receiver capture), go statements, map writes, variadic calls passing
// a non-ellipsis argument list (the argument slice), and calls into
// standard-library functions outside a small proven-clean whitelist
// (math, math/bits, sync/atomic, io.ReadFull, runtime.GOMAXPROCS and
// NumCPU, the fixed-width encoding/binary Uint/PutUint helpers) —
// fmt.*, errors.New, and friends therefore poison a hot path by
// construction.
//
// Two escape hatches keep real scratch-arena code annotatable. Cold
// paths are exempt: the pass builds a CFG per function (cfg.go) and
// skips blocks from which execution inevitably panics or returns a
// freshly constructed error (fmt.Errorf / errors.New / &...Error{}) —
// validation and corruption paths may allocate their diagnostics.
// Arena growth is declared: an append/make that (re)fills a reusable
// scratch buffer may be annotated on its line (or the line above) with
//
//	//lint:prealloc <reason>
//
// meaning "this growth happens at most O(1) times per arena, not per
// op"; a prealloc with no reason is itself a finding. Anything else
// needs an ordinary //lint:allow noalloc <reason>, and allows are
// honored while building summaries, so a justified allocation inside a
// callee does not poison its annotated callers.
//
// Deliberate exemptions (documented blind spots, kept so the pass stays
// stdlib-only and precise): calls through interface methods and
// function values are not followed (the target is unknown statically;
// passing a stack value to an interface method can also make it escape
// at runtime — the paired AllocsPerRun tests catch that class), defer
// records are not counted (open-coded since Go 1.14), and implicit
// interface boxing at plain assignments is not modeled (the fmt.*,
// variadic, and conversion rules catch the vectors that occur in
// practice).
type NoAlloc struct{}

// Name implements Pass.
func (*NoAlloc) Name() string { return "noalloc" }

// Doc implements Pass.
func (*NoAlloc) Doc() string {
	return "//lint:noalloc functions (and their static callees) must not heap-allocate outside cold panic/error paths (interprocedural, CFG-based)"
}

// Run implements Pass.
func (p *NoAlloc) Run(prog *Program) []Finding {
	// Allows are folded into summaries so a justified site does not
	// poison callers. Summaries are built on demand: only functions on
	// some annotated function's static call tree are ever scanned.
	idx := prog.index()
	findings := idx.malformed("noalloc")
	annotated := map[*types.Func]bool{}
	for _, d := range idx.directives {
		if d.Kind == "noalloc" && d.fn != nil {
			annotated[d.fn] = true
		}
	}
	sums := map[*types.Func]*summary{}
	summaryOf := func(obj *types.Func) *summary {
		if sums[obj] == nil {
			sums[obj] = buildAllocSummary(prog, idx.decls[obj])
		}
		return sums[obj]
	}
	allocates := idx.reaches(prog, summaryOf)
	for _, fn := range idx.funcs {
		if !annotated[fn.obj] {
			continue
		}
		sum := summaryOf(fn.obj)
		for _, s := range sum.sites {
			findings = append(findings, Finding{Pass: "noalloc", Pos: prog.Fset.Position(s.pos),
				Message: fmt.Sprintf("%s is annotated //lint:noalloc but %s", fn.name, s.what)})
		}
		for _, c := range sum.calls {
			if annotated[c.callee] {
				// An annotated callee carries its own contract; its
				// violations are reported at its own sites, once.
				continue
			}
			if w := allocates(c.callee); w != "" {
				findings = append(findings, Finding{Pass: "noalloc", Pos: prog.Fset.Position(c.pos),
					Message: fmt.Sprintf("call allocates on the //lint:noalloc path of %s: %s", fn.name, w)})
			}
		}
	}
	return findings
}

// buildAllocSummary scans fn's warm blocks for allocation sites and
// module call edges, folding in allow/prealloc suppressions.
func buildAllocSummary(prog *Program, fn *funcBody) *summary {
	cfg := BuildCFG(fn.body)
	cold := cfg.ColdBlocks(panicDetector(fn.pkg), coldReturnDetector(fn.pkg))

	w := &allocWalker{prog: prog, pkg: fn.pkg, sum: &summary{}, callFuns: map[ast.Node]bool{}}
	for _, blk := range cfg.Blocks {
		if cold[blk] {
			continue
		}
		for _, n := range blk.Nodes {
			w.scan(n)
		}
	}
	return w.sum
}

// allocWalker accumulates one function's summary.
type allocWalker struct {
	prog     *Program
	pkg      *Package
	sum      *summary
	callFuns map[ast.Node]bool // call-position expressions (not method values)
}

// covered reports whether a directive of kind for noalloc covers pos.
func (w *allocWalker) covered(kind string, pos token.Pos) bool {
	return w.prog.index().covers(kind, "noalloc", w.prog.Fset.Position(pos))
}

func (w *allocWalker) site(pos token.Pos, what string) {
	if !w.covered("allow", pos) {
		w.sum.sites = append(w.sum.sites, site{pos: pos, what: what})
	}
}

// growthSite records an append/make style arena-growth site, exemptable
// by //lint:prealloc.
func (w *allocWalker) growthSite(pos token.Pos, what string) {
	if !w.covered("prealloc", pos) {
		w.site(pos, what+" (arena refills may be declared with //lint:prealloc <reason>)")
	}
}

// scan inspects one block node. Function literals are atoms: the
// literal itself is an allocation, its body belongs to no block here.
func (w *allocWalker) scan(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			w.site(e.Pos(), "a function literal allocates its closure")
			return false
		case *ast.GoStmt:
			w.site(e.Pos(), "a go statement allocates the goroutine and its argument frame")
		case *ast.CallExpr:
			w.callFuns[ast.Unparen(e.Fun)] = true
			w.call(e)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					w.site(e.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			w.compositeLit(e)
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(w.pkg, e) {
				w.site(e.Pos(), "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			if !w.callFuns[e] {
				if sel, ok := w.pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
					w.site(e.Pos(), fmt.Sprintf("method value %s captures its receiver (allocates)", e.Sel.Name))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok && isMapExpr(w.pkg, idx.X) {
					w.site(idx.Pos(), "a map write may allocate (bucket growth)")
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok && isMapExpr(w.pkg, idx.X) {
				w.site(idx.Pos(), "a map write may allocate (bucket growth)")
			}
		}
		return true
	})
}

// compositeLit classifies a composite literal: slice and map literals
// allocate their backing store; value struct and array literals live in
// their enclosing frame and are exempt (taking their address is the
// &T{...} rule above).
func (w *allocWalker) compositeLit(lit *ast.CompositeLit) {
	tv, ok := w.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.site(lit.Pos(), "a slice literal allocates its backing array")
	case *types.Map:
		w.site(lit.Pos(), "a map literal allocates")
	}
}

// call classifies one call expression: builtin, conversion, module edge,
// or standard-library leaf.
func (w *allocWalker) call(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		w.conversion(call, tv.Type)
		return
	}

	// Builtins.
	if name := builtinName(w.pkg, call); name != "" {
		switch name {
		case "append":
			w.growthSite(call.Pos(), "append may grow its backing array")
		case "make":
			w.growthSite(call.Pos(), "make allocates")
		case "new":
			w.site(call.Pos(), "new allocates")
		case "print", "println":
			w.site(call.Pos(), "print/println box their arguments")
		}
		// len, cap, copy, delete, clear, min, max, real, imag,
		// complex, recover: allocation-free. panic lives in cold
		// blocks by construction.
		return
	}

	callee := staticCalleeFunc(w.pkg, call)
	if callee == nil {
		// Function-value call: target unknown — documented exemption.
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if _, iface := recv.Type().Underlying().(*types.Interface); iface {
				// Interface-method call — documented exemption.
				return
			}
		}
		// A variadic call without ... builds its argument slice.
		if sig.Variadic() && call.Ellipsis == token.NoPos &&
			len(call.Args) >= sig.Params().Len() {
			w.site(call.Pos(), fmt.Sprintf("variadic call to %s builds an argument slice", shortName(callee)))
		}
	}

	if moduleMember(w.prog, callee.Pkg()) {
		if !w.covered("allow", call.Pos()) {
			w.sum.calls = append(w.sum.calls, edge{callee: callee, pos: call.Pos()})
		}
		return
	}
	w.stdlibCall(call, callee)
}

// conversion flags the allocating conversions: to/from string and byte
// or rune slices, and boxing into an interface type.
func (w *allocWalker) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	if _, iface := target.Underlying().(*types.Interface); iface {
		w.site(call.Pos(), "conversion to an interface type boxes its operand")
		return
	}
	argTV, ok := w.pkg.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return
	}
	from, to := argTV.Type.Underlying(), target.Underlying()
	switch {
	case isStringType(to) && isByteOrRuneSlice(from):
		w.site(call.Pos(), "[]byte/[]rune → string conversion allocates")
	case isByteOrRuneSlice(to) && isStringType(from):
		w.site(call.Pos(), "string → []byte/[]rune conversion allocates")
	}
}

// stdlibCall applies the standard-library whitelist: a short list of
// functions proven allocation-free; binary.AppendUint* counts as append
// growth; everything else is assumed to allocate.
func (w *allocWalker) stdlibCall(call *ast.CallExpr, callee *types.Func) {
	pkgPath, name := callee.Pkg().Path(), callee.Name()
	switch pkgPath {
	case "math", "math/bits", "sync/atomic":
		return
	case "io":
		if name == "ReadFull" {
			return
		}
	case "runtime":
		if name == "GOMAXPROCS" || name == "NumCPU" {
			return
		}
	case "encoding/binary":
		switch name {
		case "Uint16", "Uint32", "Uint64", "PutUint16", "PutUint32", "PutUint64":
			return
		}
		if strings.HasPrefix(name, "AppendUint") {
			w.growthSite(call.Pos(), fmt.Sprintf("%s may grow its destination", shortName(callee)))
			return
		}
	}
	w.site(call.Pos(), fmt.Sprintf("call to %s is outside the noalloc stdlib whitelist (assumed to allocate)", shortName(callee)))
}

// panicDetector recognizes nodes that unconditionally abort: panic and
// os.Exit calls (function literals excluded — their bodies run later,
// if at all).
func panicDetector(pkg *Package) func(ast.Node) bool {
	return func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if found {
				return false
			}
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				found = builtinName(pkg, call) == "panic" || isPkgFunc(staticCalleeFunc(pkg, call), "os", "Exit")
			}
			return !found
		})
		return found
	}
}

// coldReturnDetector recognizes returns whose results include a freshly
// constructed error — fmt.Errorf, errors.New, or &SomethingError{...} —
// the validation-failure exits a hot path takes at most once per bad
// input, never in steady state.
func coldReturnDetector(pkg *Package) func(*ast.ReturnStmt) bool {
	return func(ret *ast.ReturnStmt) bool {
		for _, res := range ret.Results {
			cold := false
			ast.Inspect(res, func(x ast.Node) bool {
				if cold {
					return false
				}
				switch e := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					f := staticCalleeFunc(pkg, e)
					cold = isPkgFunc(f, "fmt", "Errorf") || isPkgFunc(f, "errors", "New")
				case *ast.UnaryExpr:
					if e.Op == token.AND {
						if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && errorTypedLit(pkg, lit) {
							cold = true
						}
					}
				}
				return !cold
			})
			if cold {
				return true
			}
		}
		return false
	}
}

// errorTypedLit reports whether lit's named type looks like an error
// payload (name ends in "Error").
func errorTypedLit(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && strings.HasSuffix(named.Obj().Name(), "Error")
}

func isStringExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isMapExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
