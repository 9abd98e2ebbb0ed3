// Package lint implements athena-lint, the FHE-aware static-analysis
// suite guarding the invariants the Go compiler cannot see:
//
//   - modguard: modular arithmetic on ring-coefficient uint64s must go
//     through the Barrett/Shoup helpers in internal/ring — a raw `%` or
//     an unchecked multiply silently corrupts NTT limbs.
//   - cryptorand: secret/noise sampling in crypto packages must never
//     touch math/rand; the seeded ChaCha8 core in internal/ring is the
//     single approved keystream.
//   - parsafe: closures handed to par.ForEach may only write state
//     derived from their index or worker slot; anything else is a data
//     race the scheduler hides most days.
//   - panicfree-wire: no panic may be reachable from the wire
//     deserialization entry points — a malicious ciphertext must yield
//     an error, not a crash.
//   - errdrop: statement-position calls in internal/core,
//     internal/serve, internal/cluster, and internal/store must not
//     silently discard an error result.
//
// On top of the syntactic passes sit four dataflow passes built on
// function summaries over the go/types call graph:
//
//   - secrettaint: interprocedural taint from secret-key material
//     (SecretKey, PRNG keystreams, seed entropy) to the wire encoders,
//     fmt/log formatting, and metrics — "secret keys never leave the
//     client", machine-checked. Sanitize with //lint:declassify <reason>.
//   - scratchalias: per-worker scratch (ShallowCopy types) captured by
//     par.ForEach / par.NewPool closures must be forked or selected
//     per-worker, never shared by alias.
//   - moddomain: Longa–Naehrig lazy-reduction domains (<q, <2q, <4q)
//     declared via //lint:domain annotations on the ring kernels are
//     abstract-interpreted through every caller; mixing (a <4q
//     intermediate into a <2q input) is rejected.
//   - noalloc: functions annotated //lint:noalloc — and everything they
//     transitively call through static module calls — are proven free
//     of heap allocation outside CFG-cold panic/error paths; arena
//     refills are declared with //lint:prealloc <reason>.
//
// Three concurrency passes share a lock/channel identity model and a
// may-held dataflow over the same CFG (conc.go):
//
//   - lockorder: per-function lock-acquisition summaries compose into a
//     module-wide lock-order graph; re-acquiring a held lock or any
//     edge on a cycle is a potential deadlock, reported with a witness
//     chain.
//   - blockhold: blocking operations (channel ops, default-less
//     selects, sleeps, Waits, fsync, io/net streams) while a mutex is
//     statically held; deliberate holds are justified in place with
//     //lint:holdok <reason>.
//   - goleak: every go statement needs a provable termination argument
//     (WaitGroup accounting, closed-channel range, bounded channel
//     protocol, or a loop-exiting cancellation select).
//
// The passes share one index of the program (index.go), built once per
// Program: every function body, the static module call graph, every
// directive parsed once, the concurrency summaries, and one bottom-up
// summary solver over the call graph's strongly connected components
// under noalloc, blockhold, lockorder and secrettaint. A pass
// contributes only what a body adds to its summary and how a finding
// is worded.
//
// Everything is built on the standard library only (go/ast, go/parser,
// go/types); go.mod stays bare. Findings can be suppressed in source
// with an explained comment:
//
//	//lint:allow <pass> <reason>
//
// either at the end of the offending line or on its own line directly
// above it. The reason is mandatory: a bare suppression is itself
// reported as a finding, and so is any other directive comment that is
// not `lint:<kind>` followed by whitespace or the comment's end.
// Findings located in generated files ("Code generated … DO NOT
// EDIT.") are dropped: generated code is fixed at its generator.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Finding is one diagnostic produced by a pass.
type Finding struct {
	Pass    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Pass, f.Message)
}

// Pass is one analyzer. Run inspects the whole program so that
// cross-package passes (panicfree-wire's call-graph walk) share the same
// interface as per-package ones.
type Pass interface {
	Name() string
	Doc() string
	Run(prog *Program) []Finding
}

// AllPasses returns the suite in reporting order.
func AllPasses() []Pass {
	return []Pass{
		&ModGuard{},
		&CryptoRand{},
		&ParSafe{},
		NewPanicFreeWire(),
		&ErrDrop{},
		&ScratchAlias{},
		&SecretTaint{},
		&ModDomain{},
		&NoAlloc{},
		&LockOrder{},
		&BlockHold{},
		&GoLeak{},
	}
}

// PassByName returns the named pass, or nil.
func PassByName(name string) Pass {
	for _, p := range AllPasses() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// Run executes the passes over prog, applies the allowlist, and returns
// the surviving findings sorted by file, line and pass (then column and
// message, so the order never depends on the order passes report in).
func Run(prog *Program, passes []Pass) []Finding {
	idx := prog.index()
	findings := idx.malformed("allowlist")
	for _, p := range passes {
		for _, f := range p.Run(prog) {
			if !idx.covers("allow", f.Pass, f.Pos) && !prog.Generated[f.Pos.Filename] {
				findings = append(findings, f)
			}
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pass, b.Pass), cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Message, b.Message))
	})
	return findings
}

// relPkgPath returns pkg's import path relative to the module root
// ("internal/ring", "cmd/athena-lint", or "" for the root package).
func relPkgPath(prog *Program, pkg *Package) string {
	if pkg.PkgPath == prog.ModulePath {
		return ""
	}
	return strings.TrimPrefix(pkg.PkgPath, prog.ModulePath+"/")
}

// staticCalleeFunc resolves call's target when it is a plain function
// or method reference — the one callee resolver every pass uses.
func staticCalleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether f is one of the named functions (or
// methods) of the package at path.
func isPkgFunc(f *types.Func, path string, names ...string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == path && slices.Contains(names, f.Name())
}

// builtinName returns the name of the builtin call invokes, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// objOf returns the object id defines or uses.
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if o := pkg.Info.Defs[id]; o != nil {
		return o
	}
	return pkg.Info.Uses[id]
}

// moduleMember reports whether pkg belongs to the analyzed module.
func moduleMember(prog *Program, pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == prog.ModulePath || strings.HasPrefix(pkg.Path(), prog.ModulePath+"/"))
}
