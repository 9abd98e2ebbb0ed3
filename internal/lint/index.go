package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"unicode"
)

// This file is the program index every pass reads instead of walking
// the module again: the analyzable function bodies, the static module
// call graph over them, the table of lint: directives, and (conc.go)
// the concurrency summaries, each built once per Program on first use.
// It also holds the one summary solver the interprocedural passes share.

// funcBody is one analyzable body: a declared function, or a function
// literal nested in one (obj nil — a literal is an atom to its
// enclosing function's flow).
type funcBody struct {
	obj  *types.Func   // nil for a function literal
	decl *ast.FuncDecl // nil for a function literal
	name string
	body *ast.BlockStmt
	pkg  *Package
	at   int // position in index.funcs

	// callees are the distinct declared module functions the body calls
	// statically, in source order; a nested literal's calls belong to
	// the declaration enclosing it. nil for a function literal.
	callees []*types.Func
}

// directiveKinds maps each directive kind to the pass that consumes it
// (allow names its pass itself) and, for kinds whose reason is
// mandatory, what an unexplained one would be.
var directiveKinds = map[string]struct{ pass, unexplained string }{
	"allow":      {"", "suppressions"},
	"declassify": {"secrettaint", "sanitizers"},
	"domain":     {"moddomain", ""},
	"holdok":     {"blockhold", "hold-across-blocking exemptions"},
	"noalloc":    {"noalloc", ""},
	"prealloc":   {"noalloc", "arena-growth exemptions"},
}

// Annotation is one lint directive found in source, as the `athena-lint
// -allows` audit lists it.
type Annotation struct {
	// Kind is the directive name: "allow", "declassify", "domain",
	// "holdok", "noalloc", "prealloc", or the unknown word of a
	// malformed directive.
	Kind string
	// Pass is the suppressed pass for allow directives, "allowlist" for
	// unknown kinds, and the consuming pass for the others.
	Pass string
	// Detail is the justification (allow/declassify/holdok/prealloc),
	// the domain signature (domain), or empty (noalloc).
	Detail string
	Pos    token.Position
}

// String renders one line of the `athena-lint -allows` inventory.
func (a Annotation) String() string {
	detail := a.Detail
	if detail == "" {
		detail = "-"
	}
	return fmt.Sprintf("%s:%d: %-10s %-12s %s", a.Pos.Filename, a.Pos.Line, a.Kind, a.Pass, detail)
}

// directive is one parsed lint: comment; fn is the declared function
// whose doc comment holds it, if any (domain and noalloc contracts
// attach there).
type directive struct {
	Annotation
	fn *types.Func
}

// index is the shared view of one Program.
type index struct {
	// funcs holds every declared function followed by the literals
	// nested in it, in package, file, position order.
	funcs []*funcBody
	decls map[*types.Func]*funcBody

	directives []directive                  // every lint: comment, in source order
	lines      map[lineKey]map[int][]string // well-formed directives' passes by line
	bad        map[string][]Finding         // malformed directives, by reporting pass

	concOnce sync.Once
	conc     *concIndex
}

// lineKey files the well-formed directives of one kind in one file.
type lineKey struct{ kind, file string }

// index returns prog's index, building it on first use.
func (prog *Program) index() *index {
	prog.idxOnce.Do(func() { prog.idx = buildIndex(prog) })
	return prog.idx
}

func buildIndex(prog *Program) *index {
	idx := &index{decls: map[*types.Func]*funcBody{},
		lines: map[lineKey]map[int][]string{}, bad: map[string][]Finding{}}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			at := map[*ast.Comment]int{}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if idx.parse(prog, c) {
						at[c] = len(idx.directives) - 1
					}
				}
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if i, ok := at[c]; ok {
							idx.directives[i].fn = obj
						}
					}
				}
				if fd.Body == nil {
					continue
				}
				fn := &funcBody{obj: obj, decl: fd, name: shortName(obj), body: fd.Body, pkg: pkg, at: len(idx.funcs)}
				idx.funcs = append(idx.funcs, fn)
				idx.decls[obj] = fn
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						idx.funcs = append(idx.funcs, &funcBody{name: fn.name + " (func literal)", body: lit.Body, pkg: pkg, at: len(idx.funcs)})
					}
					return true
				})
			}
		}
	}
	for _, fn := range idx.funcs {
		if fn.obj == nil {
			continue
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCalleeFunc(fn.pkg, call); idx.decls[callee] != nil && !slices.Contains(fn.callees, callee) {
					fn.callees = append(fn.callees, callee)
				}
			}
			return true
		})
	}
	return idx
}

// parse records c when it is a directive: `lint:<kind>` followed by
// whitespace or the end of the comment. A comment starting with lint:
// that names no kind is an allowlist finding, as are allows missing a
// pass or reason; a declassify, holdok or prealloc without a reason is
// a finding of its consuming pass. Only well-formed directives cover
// anything.
func (idx *index) parse(prog *Program, c *ast.Comment) bool {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "lint:")
	if !ok {
		return false
	}
	end := strings.IndexFunc(rest, unicode.IsSpace)
	if end < 0 {
		end = len(rest)
	}
	a := Annotation{Kind: rest[:end], Detail: strings.TrimSpace(rest[end:]), Pos: prog.Fset.Position(c.Pos())}
	bad := func(pass, format string, args ...any) {
		idx.bad[pass] = append(idx.bad[pass], Finding{Pass: pass, Pos: a.Pos, Message: fmt.Sprintf(format, args...)})
	}
	k, known := directiveKinds[a.Kind]
	a.Pass = k.pass
	wellFormed := false
	switch {
	case !known:
		a.Pass = "allowlist"
		bad("allowlist", "unknown directive lint:%s (the kinds are allow, declassify, domain, holdok, noalloc, prealloc)", a.Kind)
	case a.Kind == "allow":
		pass, reason, _ := strings.Cut(a.Detail, " ")
		a.Pass, a.Detail = pass, strings.TrimSpace(reason)
		switch {
		case pass == "":
			bad("allowlist", "lint:allow directive missing pass name")
		case PassByName(pass) == nil:
			bad("allowlist", "lint:allow names unknown pass %q", pass)
		case a.Detail == "":
			bad("allowlist", "lint:allow %s has no reason; unexplained suppressions are forbidden", pass)
		default:
			wellFormed = true
		}
	case k.unexplained != "" && a.Detail == "":
		bad(k.pass, "lint:%s has no reason; unexplained %s are forbidden", a.Kind, k.unexplained)
	default:
		wellFormed = true
	}
	if wellFormed {
		key := lineKey{a.Kind, a.Pos.Filename}
		if idx.lines[key] == nil {
			idx.lines[key] = map[int][]string{}
		}
		idx.lines[key][a.Pos.Line] = append(idx.lines[key][a.Pos.Line], a.Pass)
	}
	idx.directives = append(idx.directives, directive{Annotation: a})
	return true
}

// covers reports whether a well-formed directive of kind for pass sits
// on pos's line or the line directly above it.
func (idx *index) covers(kind, pass string, pos token.Position) bool {
	byLine := idx.lines[lineKey{kind, pos.Filename}]
	return slices.Contains(byLine[pos.Line], pass) || slices.Contains(byLine[pos.Line-1], pass)
}

// malformed returns a copy of the directive findings pass reports.
func (idx *index) malformed(pass string) []Finding {
	return append([]Finding(nil), idx.bad[pass]...)
}

// CollectAnnotations inventories every lint directive in the program —
// malformed and unknown ones included, so a broken directive is still
// visible — sorted by file, line, kind.
func CollectAnnotations(prog *Program) []Annotation {
	var out []Annotation
	for _, d := range prog.index().directives {
		out = append(out, d.Annotation)
	}
	slices.SortFunc(out, func(a, b Annotation) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Kind, b.Kind))
	})
	return out
}

// site is one local operation a witness query looks for — an
// allocation (noalloc), a blocking operation (blockhold) — with the
// may-held set at it where conc.go tracks one.
type site struct {
	pos  token.Pos
	what string
	held []*types.Var
}

// edge is one static call into a module function.
type edge struct {
	callee *types.Func
	pos    token.Pos
	held   []*types.Var
}

// summary is what the witness query reads of one function: its
// unsuppressed local sites and its module call edges.
type summary struct {
	sites []site
	calls []edge
}

// solver computes one summary S per declared function bottom-up over
// the call graph. A query runs a lazy Tarjan walk from the queried
// function; when a strongly connected component completes, step runs
// over its members in index order until none of their summaries grows,
// reading callee summaries through get: final below the component, the
// current value (at first the zero S) inside it. Every summary lattice
// is finite and step is monotone in it, so the sweep ends without a
// cap, and the result never depends on which function was queried
// first. An acyclic function takes one step.
type solver[S any] struct {
	idx   *index
	step  func(fn *funcBody, sum *S) bool // grows *sum; reports whether it changed
	nodes map[*types.Func]*solverNode[S]
	stack []*funcBody
}

type solverNode[S any] struct {
	sum      S
	num, low int
	onStack  bool
}

func newSolver[S any](idx *index, step func(fn *funcBody, sum *S) bool) *solver[S] {
	return &solver[S]{idx: idx, step: step, nodes: map[*types.Func]*solverNode[S]{}}
}

// get returns fn's summary, solving its component first; the zero S
// when fn has no analyzable body. Steps may only get the callees the
// call graph lists for them.
func (s *solver[S]) get(fn *types.Func) S {
	n := s.nodes[fn]
	if n == nil {
		body := s.idx.decls[fn]
		if body == nil {
			var zero S
			return zero
		}
		n = s.visit(body)
	}
	return n.sum
}

func (s *solver[S]) visit(fn *funcBody) *solverNode[S] {
	n := &solverNode[S]{num: len(s.nodes), onStack: true}
	n.low = n.num
	s.nodes[fn.obj] = n
	s.stack = append(s.stack, fn)
	for _, c := range fn.callees {
		if m := s.nodes[c]; m == nil {
			n.low = min(n.low, s.visit(s.idx.decls[c]).low)
		} else if m.onStack {
			n.low = min(n.low, m.num)
		}
	}
	if n.low != n.num {
		return n
	}
	i := slices.Index(s.stack, fn)
	scc := slices.Clone(s.stack[i:])
	s.stack = s.stack[:i]
	for _, m := range scc {
		s.nodes[m.obj].onStack = false
	}
	slices.SortFunc(scc, func(a, b *funcBody) int { return a.at - b.at })
	acyclic := len(scc) == 1 && !slices.Contains(fn.callees, fn.obj)
	for {
		changed := false
		for _, m := range scc {
			changed = s.step(m, &s.nodes[m.obj].sum) || changed
		}
		if !changed || acyclic {
			return n
		}
	}
}

// reaches is the first-witness query: the chain `a → b: what at
// file:line` by which fn reaches one of sum's local sites through
// static module calls, or "". A function's witness is its first site,
// or else its first call whose callee has a witness; once set it is
// frozen, so every chain is finite and names callees that had their
// witness first.
func (idx *index) reaches(prog *Program, sum func(*types.Func) *summary) func(*types.Func) string {
	var sv *solver[string]
	sv = newSolver(idx, func(fn *funcBody, w *string) bool {
		if *w != "" {
			return false
		}
		s := sum(fn.obj)
		if len(s.sites) > 0 {
			*w = fmt.Sprintf("%s: %s at %s", shortName(fn.obj), s.sites[0].what, shortPos(prog, s.sites[0].pos))
			return true
		}
		for _, c := range s.calls {
			if cw := sv.get(c.callee); cw != "" {
				*w = shortName(fn.obj) + " → " + cw
				return true
			}
		}
		return false
	})
	return sv.get
}

// shortPos renders pos as file:line with the file's base name.
func shortPos(prog *Program, pos token.Pos) string {
	p := prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
