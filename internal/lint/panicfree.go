package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// PanicFreeWire walks the static call graph from the wire
// deserialization entry points and flags every reachable panic call. The
// north-star deployment decrypts attacker-supplied bytes; a malformed
// ciphertext must surface as a returned error, never as a crash that an
// attacker can trigger at will.
//
// Entry points are the functions named Read*/read* declared in the wire
// files (bfv/serialize.go, lwe/serialize.go, core/wire.go,
// core/evalkeys.go), the Read*/Decode* frame and payload decoders of
// the serving protocol (serve/proto.go), and the client's reply parsing
// (serve/client/client.go readLoop and any decoder). The server's
// dispatch handlers are deliberately not entry points: every attacker
// byte they touch flows through the proto.go/evalkeys.go decoders first
// (which ARE walked), and the engine construction behind Registry.Open
// panics only on parameters those decoders have already validated — the
// EvalKeyCodec split from PR 4 exists precisely to keep construction
// out of the attacker-bytes walk. The walk is
// static and module-internal: calls through function values, interface
// methods, and the standard library are treated as boundaries. That
// under-approximates reachability, so keep wire code first-order — which
// it is, by construction.
type PanicFreeWire struct {
	// Entries configures the roots; tests override it to point at
	// fixture files.
	Entries []WireEntry
}

// WireEntry selects entry-point functions: those declared in File inside
// the package whose module-relative path is Pkg, with a name starting
// with one of Prefixes.
type WireEntry struct {
	Pkg      string // module-relative package path, e.g. "internal/bfv"
	File     string // basename, e.g. "serialize.go"
	Prefixes []string
}

// NewPanicFreeWire returns the pass with the repo's production entry
// points.
func NewPanicFreeWire() *PanicFreeWire {
	rw := []string{"Read", "read"}
	return &PanicFreeWire{Entries: []WireEntry{
		{Pkg: "internal/bfv", File: "serialize.go", Prefixes: rw},
		{Pkg: "internal/lwe", File: "serialize.go", Prefixes: rw},
		{Pkg: "internal/core", File: "wire.go", Prefixes: rw},
		{Pkg: "internal/core", File: "evalkeys.go", Prefixes: rw},
		{Pkg: "internal/serve", File: "proto.go", Prefixes: []string{"Read", "read", "Decode"}},
		{Pkg: "internal/serve/client", File: "client.go", Prefixes: []string{"Read", "read", "Decode", "decode"}},
		// The durable tier meets bytes it did not write after a crash or
		// a rotted disk: the file names of the directory walk in Open, and
		// the object Load opens and Verify hashes.
		{Pkg: "internal/store", File: "store.go", Prefixes: []string{"Open", "Load", "validID"}},
		{Pkg: "internal/store", File: "blob.go", Prefixes: []string{"Verify", "ReadAt"}},
		// The cluster router relays frames between untrusted clients and
		// backend nodes: both socket directions are wire entry points, as
		// is the stats aggregator's per-node fetch.
		{Pkg: "internal/cluster", File: "router.go", Prefixes: []string{"handle", "dispatch", "backend", "relay"}},
		{Pkg: "internal/cluster", File: "stats.go", Prefixes: []string{"fetch", "Gather"}},
	}}
}

// Name implements Pass.
func (*PanicFreeWire) Name() string { return "panicfree-wire" }

// Doc implements Pass.
func (*PanicFreeWire) Doc() string {
	return "panic calls reachable from the wire deserialization entry points"
}

// fnNode is the per-function call-graph node.
type fnNode struct {
	fn      *types.Func
	callees []*types.Func
	panics  []token.Pos
}

// Run implements Pass.
func (p *PanicFreeWire) Run(prog *Program) []Finding {
	graph := map[*types.Func]*fnNode{}
	var entries []*types.Func
	for _, pkg := range prog.Packages {
		rel := relPkgPath(prog, pkg)
		for _, file := range pkg.Files {
			base := filepath.Base(prog.Fset.Position(file.Package).Filename)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := buildNode(pkg, obj, fd)
				graph[obj] = node
				if p.isEntry(rel, base, fd.Name.Name) {
					entries = append(entries, obj)
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].FullName() < entries[j].FullName() })

	// BFS with parent pointers for path reporting.
	parent := map[*types.Func]*types.Func{}
	seen := map[*types.Func]bool{}
	queue := append([]*types.Func{}, entries...)
	for _, e := range entries {
		seen[e] = true
	}
	var findings []Finding
	reported := map[token.Pos]bool{}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := graph[fn]
		if node == nil {
			continue
		}
		for _, pos := range node.panics {
			if reported[pos] {
				continue
			}
			reported[pos] = true
			findings = append(findings, Finding{
				Pass: "panicfree-wire",
				Pos:  prog.Fset.Position(pos),
				Message: fmt.Sprintf("panic reachable from wire deserialization (%s): return a wrapped error instead",
					callPath(parent, fn)),
			})
		}
		for _, callee := range node.callees {
			if !seen[callee] {
				seen[callee] = true
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return findings
}

func (p *PanicFreeWire) isEntry(relPkg, file, name string) bool {
	for _, e := range p.Entries {
		if e.Pkg != relPkg || e.File != file {
			continue
		}
		for _, pre := range e.Prefixes {
			if strings.HasPrefix(name, pre) {
				return true
			}
		}
	}
	return false
}

// buildNode records fn's statically resolvable callees and its direct
// panic sites. Function literals nested in the body are attributed to
// the enclosing declaration: the wire readers invoke their helpers
// synchronously, so this over-approximates in the safe direction.
func buildNode(pkg *Package, obj *types.Func, fd *ast.FuncDecl) *fnNode {
	node := &fnNode{fn: obj}
	seen := map[*types.Func]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			switch o := pkg.Info.Uses[fun].(type) {
			case *types.Builtin:
				if o.Name() == "panic" {
					node.panics = append(node.panics, call.Pos())
				}
			case *types.Func:
				if !seen[o] {
					seen[o] = true
					node.callees = append(node.callees, o)
				}
			}
		case *ast.SelectorExpr:
			if o, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok && !seen[o] {
				seen[o] = true
				node.callees = append(node.callees, o)
			}
		}
		return true
	})
	return node
}

// callPath renders entry → … → fn using the BFS parent chain.
func callPath(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = parent[f] {
		chain = append(chain, shortName(f))
		if _, ok := parent[f]; !ok {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " → ")
}

// shortName renders pkg.Func or pkg.(Recv).Method without the module
// prefix noise.
func shortName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type().String()
		if i := strings.LastIndexAny(t, "./"); i >= 0 {
			t = t[i+1:]
		}
		name = t + "." + name
	}
	if f.Pkg() != nil {
		p := f.Pkg().Path()
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		name = p + "." + name
	}
	return name
}
