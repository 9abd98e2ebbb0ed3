package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModDomain tracks the Longa–Naehrig lazy-reduction coefficient domains
// that internal/ring's hot kernels trade in. The NTT and the Shoup
// vector kernels deliberately leave intermediates in [0,2q) or [0,4q)
// and defer the final reduction; feeding such an intermediate into a
// routine that assumes fully reduced inputs silently corrupts limbs in a
// way no type signature can express. The domains are declared on the
// kernels themselves:
//
//	//lint:domain a:<2q b:<2q -> ret:<4q
//	func (m Modulus) AddLazy(a, b uint64) uint64 { ... }
//
// Left of `->` are the required input domains (by parameter name); right
// are the produced output domains — `ret` for the first result, or a
// (pointer/slice) parameter name for in-place outputs like `out:<q` or
// the NTT's `p:<q`. Domains form the chain <q ⊏ <2q ⊏ <4q ⊏ any.
//
// The pass abstractly interprets every function body in the module:
// identifiers start at <q (the canonical-by-convention default, so
// unannotated code stays quiet), annotated calls produce their declared
// output domains, `x % m` re-canonicalizes to <q, `+` widens by bound
// arithmetic (q+q→2q, 2q+2q→4q, beyond 4q→any), and `-`/`*` widen to
// any (wraparound/overflow). Branches join pointwise at the maximum;
// loop bodies run twice so loop-carried widening is observed. At every
// call to an annotated kernel, each argument's inferred domain must be
// ⊑ the declared input domain — a <4q value flowing into an `a:<2q`
// parameter is a finding.
//
// The leaf annotations themselves are trusted declarations (their bodies
// are bit-level arithmetic the interpreter cannot bound; the lazy_test.go
// property tests pin them against a fully reduced reference). The pass
// checks their composition. Manual in-line reductions the interpreter
// cannot see get a justified //lint:allow moddomain.
type ModDomain struct{}

// Name implements Pass.
func (*ModDomain) Name() string { return "moddomain" }

// Doc implements Pass.
func (*ModDomain) Doc() string {
	return "lazy-reduction domain mixing: <2q/<4q intermediates flowing into kernels annotated to require reduced inputs"
}

// domain is the abstract coefficient bound.
type domain int

const (
	domQ   domain = iota // fully reduced, [0, q)
	dom2Q                // [0, 2q)
	dom4Q                // [0, 4q)
	domAny               // unbounded / unknown
)

func (d domain) String() string {
	switch d {
	case domQ:
		return "<q"
	case dom2Q:
		return "<2q"
	case dom4Q:
		return "<4q"
	}
	return "any"
}

func parseDomain(s string) (domain, bool) {
	switch s {
	case "<q":
		return domQ, true
	case "<2q":
		return dom2Q, true
	case "<4q":
		return dom4Q, true
	case "any":
		return domAny, true
	}
	return domAny, false
}

func maxDomain(a, b domain) domain {
	if a > b {
		return a
	}
	return b
}

// widenSum is the abstract `+`: the bound of a sum is the sum of bounds.
func widenSum(a, b domain) domain {
	if a == domAny || b == domAny {
		return domAny
	}
	// Bounds in units of q: <q=1, <2q=2, <4q=4.
	units := func(d domain) int { return []int{1, 2, 4}[d] }
	switch s := units(a) + units(b); {
	case s <= 2:
		return dom2Q
	case s <= 4:
		return dom4Q
	default:
		return domAny
	}
}

// domainAnnot is one parsed //lint:domain declaration.
type domainAnnot struct {
	inputs  map[string]domain // by parameter name
	outputs map[string]domain // by parameter name (in-place outputs)
	ret     domain
	hasRet  bool
}

// Run implements Pass.
func (p *ModDomain) Run(prog *Program) []Finding {
	idx := prog.index()
	annots := map[*types.Func]*domainAnnot{}
	var findings []Finding
	for _, d := range idx.directives {
		if d.Kind != "domain" || d.fn == nil {
			continue // a domain contract lives in a declaration's doc comment
		}
		annot, err := parseDomainAnnot(d.Detail, d.fn)
		if err != "" {
			findings = append(findings, Finding{Pass: "moddomain", Pos: d.Pos,
				Message: "malformed lint:domain directive: " + err})
			continue
		}
		annots[d.fn] = annot
	}
	if len(annots) == 0 {
		return findings
	}
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, msg string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		findings = append(findings, Finding{Pass: "moddomain", Pos: prog.Fset.Position(pos), Message: msg})
	}
	for _, fn := range idx.funcs {
		if fn.obj == nil {
			continue
		}
		interp := &domainInterp{pkg: fn.pkg, annots: annots, state: map[types.Object]domain{}}
		interp.seedParams(fn.decl, annots[fn.obj])
		// Two passes: the first stabilizes loop-carried domains, the
		// second reports against the settled state.
		interp.execBlock(fn.body)
		interp.report = report
		interp.execBlock(fn.body)
	}
	return findings
}

// parseDomainAnnot parses "a:<q b:<2q -> ret:<4q out:<q" against fn's
// signature; returns an error description on malformed input.
func parseDomainAnnot(spec string, fn *types.Func) (*domainAnnot, string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, "not a function"
	}
	params := map[string]bool{}
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i).Name()] = true
	}
	annot := &domainAnnot{inputs: map[string]domain{}, outputs: map[string]domain{}}
	side := annot.inputs
	fields := strings.Fields(spec)
	hasArrow := false
	for _, tok := range fields {
		if tok == "->" {
			hasArrow = true
		}
	}
	if !hasArrow {
		return nil, "missing -> separator"
	}
	sawArrow := false
	for _, tok := range fields {
		if tok == "->" {
			if sawArrow {
				return nil, "more than one ->"
			}
			sawArrow = true
			side = annot.outputs
			continue
		}
		name, domStr, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Sprintf("%q is not name:domain", tok)
		}
		d, ok := parseDomain(domStr)
		if !ok {
			return nil, fmt.Sprintf("unknown domain %q (want <q, <2q, <4q, or any)", domStr)
		}
		if name == "ret" {
			if !sawArrow {
				return nil, "ret declared on the input side"
			}
			if sig.Results().Len() == 0 {
				return nil, "ret declared but function has no results"
			}
			annot.ret, annot.hasRet = d, true
			continue
		}
		if !params[name] {
			return nil, fmt.Sprintf("%q names no parameter of %s", name, fn.Name())
		}
		side[name] = d
	}
	return annot, ""
}

// domainInterp is the per-function abstract interpreter.
type domainInterp struct {
	pkg    *Package
	annots map[*types.Func]*domainAnnot
	state  map[types.Object]domain
	report func(pos token.Pos, msg string) // nil during the stabilizing pass
}

// seedParams initializes parameter domains: declared inputs of the
// function's own annotation, <q otherwise (the canonical default).
func (in *domainInterp) seedParams(fd *ast.FuncDecl, annot *domainAnnot) {
	if annot == nil || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if d, ok := annot.inputs[name.Name]; ok {
				if v := in.pkg.Info.Defs[name]; v != nil {
					in.state[v] = d
				}
			}
		}
	}
}

// joinInto merges other into the current state pointwise at the max.
func (in *domainInterp) joinInto(other map[types.Object]domain) {
	for k, v := range other {
		in.state[k] = maxDomain(in.state[k], v)
	}
}

func (in *domainInterp) execBlock(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		in.execStmt(st)
	}
}

func (in *domainInterp) execStmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		in.execAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					d := domQ
					if i < len(vs.Values) {
						d = in.exprDomain(vs.Values[i])
					}
					in.setIdent(name, d)
				}
			}
		}
	case *ast.ExprStmt:
		in.exprDomain(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			in.execStmt(s.Init)
		}
		in.exprDomain(s.Cond)
		saved := cloneDomains(in.state)
		in.execBlock(s.Body)
		thenState := in.state
		in.state = saved
		if s.Else != nil {
			in.execStmt(s.Else)
		}
		in.joinInto(thenState)
	case *ast.ForStmt:
		if s.Init != nil {
			in.execStmt(s.Init)
		}
		for i := 0; i < 2; i++ {
			if s.Cond != nil {
				in.exprDomain(s.Cond)
			}
			in.execBlock(s.Body)
			if s.Post != nil {
				in.execStmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		if s.Key != nil {
			if id, ok := s.Key.(*ast.Ident); ok {
				in.setIdent(id, domQ) // indices are lengths, not coefficients
			}
		}
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok {
				in.setIdent(id, in.exprDomain(s.X))
			}
		}
		for i := 0; i < 2; i++ {
			in.execBlock(s.Body)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			in.execStmt(s.Init)
		}
		saved := cloneDomains(in.state)
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			in.state = cloneDomains(saved)
			for _, b := range cc.Body {
				in.execStmt(b)
			}
			branch := in.state
			in.state = saved
			in.joinInto(branch)
			saved = cloneDomains(in.state)
		}
	case *ast.BlockStmt:
		in.execBlock(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			in.exprDomain(r)
		}
	case *ast.IncDecStmt:
		in.exprDomain(s.X)
	case *ast.DeferStmt:
		in.exprDomain(s.Call)
	case *ast.GoStmt:
		in.exprDomain(s.Call)
	case *ast.LabeledStmt:
		in.execStmt(s.Stmt)
	}
}

func cloneDomains(m map[types.Object]domain) map[types.Object]domain {
	c := make(map[types.Object]domain, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (in *domainInterp) execAssign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Op-assign mirrors the corresponding binary operator.
		var d domain
		switch s.Tok {
		case token.ADD_ASSIGN:
			d = widenSum(in.exprDomain(s.Lhs[0]), in.exprDomain(s.Rhs[0]))
		case token.REM_ASSIGN:
			in.exprDomain(s.Rhs[0])
			d = domQ // deliberate re-canonicalization
		case token.AND_ASSIGN:
			a, b := in.exprDomain(s.Lhs[0]), in.exprDomain(s.Rhs[0])
			d = a
			if b < a {
				d = b
			}
		case token.SHR_ASSIGN:
			in.exprDomain(s.Rhs[0])
			d = in.exprDomain(s.Lhs[0])
		default: // -=, *=, <<=, /=, |=, ^=: wraparound/overflow territory
			in.exprDomain(s.Rhs[0])
			d = domAny
		}
		in.assignTo(s.Lhs[0], d, false)
		return
	}
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		d := in.exprDomain(s.Rhs[0])
		for _, lhs := range s.Lhs {
			in.assignTo(lhs, d, s.Tok == token.DEFINE)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i < len(s.Rhs) {
			in.assignTo(lhs, in.exprDomain(s.Rhs[i]), s.Tok == token.DEFINE)
		}
	}
}

// assignTo writes a domain into an assignment target. Whole-identifier
// writes replace; element writes join (the other elements keep their old
// bound).
func (in *domainInterp) assignTo(lhs ast.Expr, d domain, define bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		in.setIdent(e, d)
	case *ast.IndexExpr:
		if base := rootIdent(e.X); base != nil {
			obj := objOf(in.pkg, base)
			if obj != nil {
				in.state[obj] = maxDomain(in.state[obj], d)
			}
		}
	case *ast.StarExpr:
		if base := rootIdent(e.X); base != nil {
			if obj := objOf(in.pkg, base); obj != nil {
				in.state[obj] = maxDomain(in.state[obj], d)
			}
		}
	}
}

func (in *domainInterp) setIdent(id *ast.Ident, d domain) {
	if id.Name == "_" {
		return
	}
	if obj := objOf(in.pkg, id); obj != nil {
		in.state[obj] = d
	}
}

// exprDomain computes the abstract domain of e, checking annotated calls
// along the way.
func (in *domainInterp) exprDomain(e ast.Expr) domain {
	switch x := e.(type) {
	case nil:
		return domQ
	case *ast.Ident:
		if obj := objOf(in.pkg, x); obj != nil {
			if d, ok := in.state[obj]; ok {
				return d
			}
		}
		return domQ
	case *ast.ParenExpr:
		return in.exprDomain(x.X)
	case *ast.IndexExpr:
		in.exprDomain(x.Index)
		return in.exprDomain(x.X)
	case *ast.SliceExpr:
		return in.exprDomain(x.X)
	case *ast.StarExpr:
		return in.exprDomain(x.X)
	case *ast.UnaryExpr:
		in.exprDomain(x.X)
		if x.Op == token.AND {
			return in.exprDomain(x.X)
		}
		return domAny // -x, ^x wrap
	case *ast.BinaryExpr:
		return in.binaryDomain(x)
	case *ast.CallExpr:
		return in.callDomain(x)
	case *ast.SelectorExpr:
		return domQ // fields and qualified idents: canonical by convention
	case *ast.BasicLit:
		return domQ // literals in kernel code are small constants
	case *ast.FuncLit:
		in.execBlock(x.Body) // closures see the captured state
		return domQ
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			in.exprDomain(elt)
		}
		return domQ
	case *ast.KeyValueExpr:
		return in.exprDomain(x.Value)
	case *ast.TypeAssertExpr:
		return in.exprDomain(x.X)
	}
	return domQ
}

func (in *domainInterp) binaryDomain(x *ast.BinaryExpr) domain {
	a, b := in.exprDomain(x.X), in.exprDomain(x.Y)
	switch x.Op {
	case token.ADD, token.OR, token.XOR: // a|b, a^b ≤ a+b
		return widenSum(a, b)
	case token.REM:
		return domQ // a deliberate re-canonicalization (modguard polices placement)
	case token.AND: // a&b ≤ min(a,b)
		if a < b {
			return a
		}
		return b
	case token.SHR:
		return a // x>>k ≤ x
	case token.SUB, token.MUL, token.SHL, token.QUO:
		return domAny // wraparound / overflow / unknown scaling
	default:
		return domQ // comparisons and logic yield booleans
	}
}

// callDomain checks a call against the callee's annotation (if any) and
// returns the result's domain.
func (in *domainInterp) callDomain(call *ast.CallExpr) domain {
	callee := staticCalleeFunc(in.pkg, call)
	var annot *domainAnnot
	if callee != nil {
		annot = in.annots[callee]
	}
	if annot == nil {
		for _, arg := range call.Args {
			in.exprDomain(arg)
		}
		return domQ // unannotated calls are canonical by convention
	}
	sig := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		got := in.exprDomain(arg)
		if i >= sig.Params().Len() {
			break
		}
		name := sig.Params().At(i).Name()
		if want, ok := annot.inputs[name]; ok && got > want {
			if in.report != nil {
				in.report(arg.Pos(), fmt.Sprintf(
					"%s value flows into %s's parameter %s, which requires %s: reduce first (Reduce2Q/Reduce4Q) or widen the annotation",
					got, shortName(callee), name, want))
			}
		}
		// In-place outputs overwrite the argument's domain.
		if out, ok := annot.outputs[name]; ok {
			if base := rootIdent(arg); base != nil {
				in.setIdent(base, out)
			}
		}
	}
	if annot.hasRet {
		return annot.ret
	}
	return domQ
}
