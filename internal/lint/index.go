package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// This file is the program index every pass reads instead of walking
// the module again: the analyzable function bodies, the table of lint:
// directives, and (conc.go) the concurrency summaries, each built once
// per Program on first use. It also holds the one reachability query
// the interprocedural passes share.

// funcBody is one analyzable body: a declared function, or a function
// literal nested in one (obj nil — a literal is an atom to its
// enclosing function's flow).
type funcBody struct {
	obj  *types.Func   // nil for a function literal
	decl *ast.FuncDecl // nil for a function literal
	name string
	body *ast.BlockStmt
	pkg  *Package
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
				fn := &funcBody{obj: obj, decl: fd, name: shortName(obj), body: fd.Body, pkg: pkg}
				idx.funcs = append(idx.funcs, fn)
				idx.decls[obj] = fn
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						idx.funcs = append(idx.funcs, &funcBody{name: fn.name + " (func literal)", body: lit.Body, pkg: pkg})
					}
					return true
				})
			}
		}
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
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Kind < b.Kind
	})
	return out
}

// site is one local operation a reachability query looks for — an
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

// summary is what the reachability query reads of one function: its
// unsuppressed local sites and its module call edges.
type summary struct {
	sites []site
	calls []edge
}

// reachability memoizes "does fn reach a local site through static
// module calls", with a witness chain `a → b: what at file:line` down
// to the first site found. A function still in progress answers clean:
// a recursive cycle that is otherwise clean stays clean, and a cycle
// holding a real site is caught when the site's owner finishes.
type reachability struct {
	prog *Program
	sum  func(*types.Func) *summary // nil: no analyzable body, nothing to prove
	memo map[*types.Func]string     // witness; "" clean or in progress
}

func newReachability(prog *Program, sum func(*types.Func) *summary) *reachability {
	return &reachability{prog: prog, sum: sum, memo: map[*types.Func]string{}}
}

func (r *reachability) reaches(fn *types.Func) (string, bool) {
	if w, seen := r.memo[fn]; seen {
		return w, w != ""
	}
	r.memo[fn] = ""
	w := r.witness(fn)
	r.memo[fn] = w
	return w, w != ""
}

func (r *reachability) witness(fn *types.Func) string {
	sum := r.sum(fn)
	if sum == nil {
		return ""
	}
	if len(sum.sites) > 0 {
		s := sum.sites[0]
		return fmt.Sprintf("%s: %s at %s", shortName(fn), s.what, shortPos(r.prog, s.pos))
	}
	for _, c := range sum.calls {
		if w, ok := r.reaches(c.callee); ok {
			return shortName(fn) + " → " + w
		}
	}
	return ""
}

// shortPos renders pos as file:line with the file's base name.
func shortPos(prog *Program, pos token.Pos) string {
	p := prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
