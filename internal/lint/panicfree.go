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
// panics only on parameters those decoders have already validated. The
// bundle decoder is the shared plan's readEvalKeys in evalkeys.go; the
// exported core.ReadEvalKeys/ReadEvalKeysAt live in plan.go because they
// first resolve the plan from the server's own Params — construction
// from trusted input, kept out of the attacker-bytes walk. The walk is
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
		// (*plan).readEvalKeys and the chunked ReaderAt adapter.
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

// Run implements Pass.
func (p *PanicFreeWire) Run(prog *Program) []Finding {
	idx := prog.index()
	var entries []*types.Func
	for _, fn := range idx.funcs {
		if fn.obj == nil {
			continue
		}
		file := filepath.Base(prog.Fset.Position(fn.decl.Pos()).Filename)
		if p.isEntry(relPkgPath(prog, fn.pkg), file, fn.obj.Name()) {
			entries = append(entries, fn.obj)
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
		body := idx.decls[fn]
		if body == nil {
			continue
		}
		for _, pos := range panicSites(body) {
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
		for _, callee := range body.callees {
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

// panicSites returns fn's direct panic calls. Function literals nested
// in the body are attributed to the enclosing declaration, as the call
// graph attributes their calls: the wire readers invoke their helpers
// synchronously, so this over-approximates in the safe direction.
func panicSites(fn *funcBody) (panics []token.Pos) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(fn.pkg, call) == "panic" {
			panics = append(panics, call.Pos())
		}
		return true
	})
	return panics
}

// callPath renders entry → … → fn using the BFS parent chain.
func callPath(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = parent[f] {
		chain = append(chain, shortName(f))
	}
	slices.Reverse(chain)
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
