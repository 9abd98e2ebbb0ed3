package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// SecretTaint is the interprocedural dataflow pass guarding the serving
// contract "secret keys never leave the client": no secret-key material
// may reach the ASV1 wire encoders, fmt/log formatting (including error
// construction), or the metrics surface.
//
// Sources are type-based: any expression whose type is (a pointer to) a
// module-declared SecretKey, the PRNG state types (ring.Keystream,
// ring.Sampler, lwe.Stream), or the result of ring.RandomSeed. Selecting
// a field of a secret value (sk.Value, sk.S, sk.Signed) yields tainted
// data, and taint then propagates through assignments, indexing,
// arithmetic, conversions, append/copy, composite literals, and function
// calls — the last via per-function summaries computed bottom-up over
// the static call graph, so a helper that funnels its argument into
// fmt.Sprintf taints its call sites and a helper that returns
// secret-derived data taints its results.
//
// Sinks: every argument of fmt.* and log.* calls, and the arguments of
// the serving-layer byte/wire builders (functions named
// Encode*/Write*/Append*/Snapshot*/Record* declared in a serve package).
//
// Sanitizers: decryption and encryption declassify by construction —
// the plaintext belongs to the data owner and a ciphertext
// computationally hides its contents — so results of module functions
// named Decrypt*/decrypt*/Encrypt*/encrypt* are clean. Everything else
// needs an explicit, explained annotation on the flagged line (or the
// line above):
//
//	//lint:declassify <reason>
//
// which clears the taint of every expression on that line. A declassify
// with no reason is itself a finding. len/cap and comparisons drop
// taint (cardinalities and booleans are not key material), and struct
// field *writes* do not taint the whole struct — secret-typed fields
// are re-detected by type at every read, which keeps god-objects like
// core.Engine from poisoning every value derived from them. Sink
// summaries are likewise exported only for aggregate-typed parameters:
// a bare integer formatted by a leaf (a galois element or modulus in a
// panic message) does not turn every transitive caller into a sink,
// while scalar leaks inside the function that touches the secret are
// still reported directly.
type SecretTaint struct{}

// Name implements Pass.
func (*SecretTaint) Name() string { return "secrettaint" }

// Doc implements Pass.
func (*SecretTaint) Doc() string {
	return "secret-key material flowing into wire encoders, fmt/log, or metrics (interprocedural)"
}

// srcBit marks taint that originates at a secret source (as opposed to
// taint that merely depends on a parameter, which only matters to
// callers). Parameter i of a function is bit 1<<i.
const srcBit uint64 = 1 << 63

const maxTrackedParams = 62

// taintSummary is the bottom-up function summary.
type taintSummary struct {
	// retMask[i] is the taint of result i as a mask over parameter bits
	// (plus srcBit when an internal source reaches the result).
	retMask []uint64
	// sinkParams are the parameters that reach a sink inside the
	// function, directly or via callees.
	sinkParams uint64
	// sinkName names one sink reachable from sinkParams, for messages.
	sinkName string
}

// taintResult is one function's solved summary with the findings of
// the analysis that produced it.
type taintResult struct {
	taintSummary
	findings []Finding
}

// Run implements Pass.
func (p *SecretTaint) Run(prog *Program) []Finding {
	idx := prog.index()
	findings := idx.malformed("secrettaint")
	taint := taintSolver(prog)
	for _, fn := range idx.funcs {
		if fn.obj != nil {
			findings = append(findings, taint.get(fn.obj).findings...)
		}
	}
	return findings
}

// taintSolver solves the summaries bottom-up over the call graph's
// components. A function's last step runs on final callee summaries,
// so the findings it leaves are final too.
func taintSolver(prog *Program) *solver[taintResult] {
	var taint *solver[taintResult]
	summaryOf := func(fn *types.Func) *taintSummary {
		if prog.index().decls[fn] == nil {
			return nil
		}
		r := taint.get(fn)
		return &r.taintSummary
	}
	taint = newSolver(prog.index(), func(fn *funcBody, r *taintResult) bool {
		an := &taintAnalysis{prog: prog, pkg: fn.pkg, summaryOf: summaryOf}
		s := an.analyze(fn)
		r.findings = an.found
		if s.sinkParams == r.sinkParams && slices.Equal(s.retMask, r.retMask) {
			return false
		}
		r.taintSummary = s
		return true
	})
	return taint
}

// taintAnalysis carries the per-function dataflow state.
type taintAnalysis struct {
	prog      *Program
	pkg       *Package
	summaryOf func(*types.Func) *taintSummary // nil: no analyzable body

	masks   map[types.Object]uint64
	changed bool      // a join grew a mask during the current sweep
	found   []Finding // source-tainted sink arguments of the current sweep

	sum taintSummary
}

// analyze computes fn's summary and leaves in found the source-tainted
// sink arguments of its last sweep, the one that ran on stable masks.
func (a *taintAnalysis) analyze(fn *funcBody) taintSummary {
	a.masks = map[types.Object]uint64{}

	sig := fn.obj.Type().(*types.Signature)
	idx := 0
	addParam := func(v *types.Var) {
		if v == nil || idx >= maxTrackedParams {
			return
		}
		a.masks[v] = 1 << uint(idx)
		if a.secretType(v.Type()) {
			a.masks[v] |= srcBit
		}
		idx++
	}
	addParam(sig.Recv())
	for i := 0; i < sig.Params().Len(); i++ {
		addParam(sig.Params().At(i))
	}
	a.sum.retMask = make([]uint64, sig.Results().Len())

	// Inner fixpoint: masks only grow, and the first sweep that grows
	// none is the last, so use-before-def ordering (loops, closures)
	// settles however long its chain.
	for a.changed = true; a.changed; {
		a.changed, a.found = false, nil
		a.walkBody(fn.body)
	}
	return a.sum
}

// join ors m into *dst, noting whether it grew.
func (a *taintAnalysis) join(dst *uint64, m uint64) {
	if *dst|m != *dst {
		*dst |= m
		a.changed = true
	}
}

func (a *taintAnalysis) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			a.handleAssign(st)
		case *ast.ValueSpec:
			if len(st.Values) == len(st.Names) {
				for i, name := range st.Names {
					a.merge(name, a.exprMask(st.Values[i]))
				}
			} else if len(st.Values) == 1 {
				ms := a.callMasks(st.Values[0])
				for i, name := range st.Names {
					if i < len(ms) {
						a.merge(name, ms[i])
					}
				}
			}
		case *ast.RangeStmt:
			m := a.exprMask(st.X)
			if id, ok := st.Value.(*ast.Ident); ok {
				a.merge(id, m)
			}
		case *ast.ReturnStmt:
			for i, e := range st.Results {
				if i < len(a.sum.retMask) {
					a.join(&a.sum.retMask[i], a.exprMask(e))
				}
			}
			if len(st.Results) == 1 && len(a.sum.retMask) > 1 {
				ms := a.callMasks(st.Results[0])
				for i := range a.sum.retMask {
					if i < len(ms) {
						a.join(&a.sum.retMask[i], ms[i])
					}
				}
			}
		case *ast.ExprStmt:
			// Statement-position calls never flow through exprMask, so
			// trigger callMasks here for its side effects (copy's
			// dst-taint, summary-based sink reporting).
			if call, ok := st.X.(*ast.CallExpr); ok {
				a.callMasks(call)
			}
		case *ast.CallExpr:
			a.checkSink(st)
		}
		return true
	})
}

func (a *taintAnalysis) handleAssign(st *ast.AssignStmt) {
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		ms := a.callMasks(st.Rhs[0])
		for i, lhs := range st.Lhs {
			var m uint64
			if i < len(ms) {
				m = ms[i]
			}
			a.assignTo(lhs, m)
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			a.assignTo(lhs, a.exprMask(st.Rhs[i]))
		}
	}
}

// assignTo propagates taint into an assignment target. Identifiers take
// the mask directly; slice-element writes taint the backing slice (a
// buffer being filled is as secret as its content). Struct field writes
// deliberately do not taint the container — see the package doc.
func (a *taintAnalysis) assignTo(lhs ast.Expr, m uint64) {
	switch e := lhs.(type) {
	case *ast.Ident:
		a.merge(e, m)
	case *ast.IndexExpr:
		if base := rootIdent(e.X); base != nil && m != 0 {
			a.mergeObj(objOf(a.pkg, base), m)
		}
	}
}

func (a *taintAnalysis) merge(id *ast.Ident, m uint64) {
	if id.Name == "_" || m == 0 {
		return
	}
	a.mergeObj(objOf(a.pkg, id), m)
}

func (a *taintAnalysis) mergeObj(o types.Object, m uint64) {
	if o == nil || m == 0 {
		return
	}
	if old := a.masks[o]; old|m != old {
		a.masks[o] = old | m
		a.changed = true
	}
}

// declassified reports whether pos's line (or the line above) carries a
// declassify directive.
func (a *taintAnalysis) declassified(pos token.Pos) bool {
	return a.prog.index().covers("declassify", "secrettaint", a.prog.Fset.Position(pos))
}

// exprMask computes the taint mask of e.
func (a *taintAnalysis) exprMask(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	if a.declassified(e.Pos()) {
		return 0
	}
	var m uint64
	switch x := e.(type) {
	case *ast.Ident:
		m = a.masks[objOf(a.pkg, x)]
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := a.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				m = a.masks[objOf(a.pkg, x.Sel)]
				break
			}
		}
		m = a.exprMask(x.X)
	case *ast.IndexExpr:
		m = a.exprMask(x.X)
	case *ast.SliceExpr:
		m = a.exprMask(x.X)
	case *ast.StarExpr:
		m = a.exprMask(x.X)
	case *ast.ParenExpr:
		m = a.exprMask(x.X)
	case *ast.UnaryExpr:
		m = a.exprMask(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return 0 // booleans are not key material
		}
		m = a.exprMask(x.X) | a.exprMask(x.Y)
	case *ast.CallExpr:
		ms := a.callMasks(x)
		for _, r := range ms {
			m |= r
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				m |= a.exprMask(kv.Value)
			} else {
				m |= a.exprMask(elt)
			}
		}
	case *ast.TypeAssertExpr:
		m = a.exprMask(x.X)
	}
	if tv, ok := a.pkg.Info.Types[e]; ok && tv.Type != nil && a.secretType(tv.Type) {
		m |= srcBit
	}
	return m
}

// callMasks computes the per-result taint of a call (or of any
// expression, treated as a single result).
func (a *taintAnalysis) callMasks(e ast.Expr) []uint64 {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return []uint64{a.exprMask(e)}
	}
	if a.declassified(call.Pos()) {
		return []uint64{0}
	}

	// Conversions pass taint through.
	if tv, ok := a.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		var m uint64
		for _, arg := range call.Args {
			m |= a.exprMask(arg)
		}
		return []uint64{m}
	}

	// Builtins: cardinalities and fresh memory are clean; append
	// carries its operands' taint, copy taints its destination.
	switch builtinName(a.pkg, call) {
	case "":
	case "append":
		var m uint64
		for _, arg := range call.Args {
			m |= a.exprMask(arg)
		}
		return []uint64{m}
	case "copy":
		if len(call.Args) == 2 {
			if src := a.exprMask(call.Args[1]); src != 0 {
				if base := rootIdent(call.Args[0]); base != nil {
					a.mergeObj(objOf(a.pkg, base), src)
				}
			}
		}
		return []uint64{0}
	default:
		return []uint64{0}
	}

	callee := staticCalleeFunc(a.pkg, call)
	argExprs := a.callArgs(call, callee)

	// Module-internal declassifiers: decryption yields the data owner's
	// plaintext, encryption yields a ciphertext that hides its content.
	if callee != nil && moduleMember(a.prog, callee.Pkg()) {
		name := callee.Name()
		if strings.HasPrefix(name, "Decrypt") || strings.HasPrefix(name, "decrypt") ||
			strings.HasPrefix(name, "Encrypt") || strings.HasPrefix(name, "encrypt") {
			// Arguments were already checked against sinks inside the
			// callee; the results are clean by construction.
			return make([]uint64, callee.Signature().Results().Len())
		}
	}

	// Secret source: fresh seed entropy.
	if callee != nil && callee.Name() == "RandomSeed" && moduleMember(a.prog, callee.Pkg()) {
		return []uint64{srcBit, 0}
	}

	if callee != nil {
		if sum := a.summaryOf(callee); sum != nil {
			// Known module function: map argument taint through the
			// callee's summary.
			argMask := func(i int) uint64 {
				if i < len(argExprs) {
					return a.exprMask(argExprs[i])
				}
				return 0
			}
			if sum.sinkParams != 0 {
				for i := range argExprs {
					if sum.sinkParams&(1<<uint(i)) == 0 {
						continue
					}
					m := a.exprMask(argExprs[i])
					a.recordSink(argExprs[i], m,
						fmt.Sprintf("%s (via %s)", sum.sinkName, shortName(callee)))
				}
			}
			res := make([]uint64, len(sum.retMask))
			for r, rm := range sum.retMask {
				if rm&srcBit != 0 {
					res[r] |= srcBit
				}
				for i := 0; i < maxTrackedParams; i++ {
					if rm&(1<<uint(i)) != 0 {
						res[r] |= argMask(i)
					}
				}
			}
			return res
		}
	}

	// Unknown callee (standard library, function values, interface
	// methods): assume results depend on every argument.
	var m uint64
	for _, arg := range argExprs {
		m |= a.exprMask(arg)
	}
	nres := 1
	if callee != nil {
		nres = callee.Signature().Results().Len()
	} else if tv, ok := a.pkg.Info.Types[call]; ok {
		if tup, ok := tv.Type.(*types.Tuple); ok {
			nres = tup.Len()
		}
	}
	if nres == 0 {
		return nil
	}
	res := make([]uint64, nres)
	for i := range res {
		res[i] = m
	}
	return res
}

// callArgs returns the call's value operands aligned to the summary's
// parameter indexing: receiver first for method calls, then arguments.
func (a *taintAnalysis) callArgs(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var args []ast.Expr
	if callee != nil && callee.Signature().Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		}
	}
	return append(args, call.Args...)
}

// checkSink inspects one call: if it targets a formatting/logging/wire
// sink, every argument's taint is recorded (parameter bits feed the
// summary; srcBit is a finding).
func (a *taintAnalysis) checkSink(call *ast.CallExpr) {
	callee := staticCalleeFunc(a.pkg, call)
	if callee == nil {
		return
	}
	sink := a.sinkNameFor(callee)
	if sink == "" {
		return
	}
	for _, arg := range call.Args {
		a.recordSink(arg, a.exprMask(arg), sink)
	}
}

// recordSink folds one sink-reaching mask into the summary and notes a
// finding, once per argument, for source taint.
func (a *taintAnalysis) recordSink(arg ast.Expr, m uint64, sink string) {
	if m == 0 || a.declassified(arg.Pos()) {
		return
	}
	// Interprocedural sink summaries are exported only for aggregate-typed
	// arguments (slices, structs, pointers, strings). A lone integer
	// crossing a function boundary into a format call is overwhelmingly a
	// public length, index, or protocol constant (galois elements, moduli
	// in panic messages), and the flow-insensitive mask merge would
	// otherwise drag whole receivers into the sink set. In-function scalar
	// leaks are still reported through the srcBit check below.
	if pm := m &^ srcBit; pm != 0 && !scalarExpr(a.pkg, arg) {
		a.join(&a.sum.sinkParams, pm)
		if a.sum.sinkName == "" {
			a.sum.sinkName = sink
		}
	}
	pos := a.prog.Fset.Position(arg.Pos())
	if m&srcBit != 0 && !slices.ContainsFunc(a.found, func(f Finding) bool { return f.Pos == pos }) {
		a.found = append(a.found, Finding{Pass: "secrettaint", Pos: pos, Message: fmt.Sprintf(
			"secret-key material reaches %s: secrets must never be formatted, logged, or wire-encoded (declassify explicitly with //lint:declassify <reason> if provably public)",
			sink)})
	}
}

// scalarExpr reports whether e's static type is a bare scalar (integer,
// boolean, float, complex) — a value that cannot hold key material in
// aggregate.
func scalarExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean|types.IsFloat|types.IsComplex) != 0
}

// sinkNameFor classifies callee as a sink, returning a display name or "".
func (a *taintAnalysis) sinkNameFor(callee *types.Func) string {
	pkg := callee.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "fmt", "log":
		return pkg.Path() + "." + callee.Name()
	}
	if moduleMember(a.prog, pkg) && inServePackage(a.prog, pkg.Path()) {
		name := callee.Name()
		for _, pre := range []string{"Encode", "encode", "Write", "write", "Append", "append", "Snapshot", "Record", "record"} {
			if strings.HasPrefix(name, pre) {
				return shortName(callee)
			}
		}
	}
	return ""
}

// inServePackage reports whether pkgPath has a "serve" path component —
// the serving layer whose encoders and metrics are the wire sinks.
func inServePackage(prog *Program, pkgPath string) bool {
	rel := strings.TrimPrefix(pkgPath, prog.ModulePath+"/")
	for _, part := range strings.Split(rel, "/") {
		if part == "serve" {
			return true
		}
	}
	return false
}

// secretType reports whether t is (a pointer to, or slice of) a
// module-declared secret-material type: a SecretKey anywhere, or the
// PRNG state types of the ring/lwe packages.
func (a *taintAnalysis) secretType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if !moduleMember(a.prog, obj.Pkg()) {
		return false
	}
	switch obj.Name() {
	case "SecretKey":
		return true
	case "Keystream", "Sampler":
		return strings.HasSuffix(obj.Pkg().Path(), "ring")
	case "Stream":
		return strings.HasSuffix(obj.Pkg().Path(), "lwe")
	}
	return false
}
