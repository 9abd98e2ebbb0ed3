package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared concurrency layer under the lockorder and
// blockhold passes (goleak reuses the channel-identity half): mutex and
// channel identity resolution against go/types objects, a forward
// may-held dataflow over the CFG of cfg.go, and per-function summaries
// built once per Program over the index's bodies and shared by both
// passes (blockhold chases them with the index's first-witness query).
//
// Identity is the *types.Var behind the lock or channel expression: a
// struct field (`b.mu` → field mu of Batcher — every instance of the
// type shares one identity, the right granularity for an order graph),
// a package-level var, or a local. Expressions that do not resolve to a
// variable (a lock returned from a call, an element of a slice) have no
// identity and are ignored — a documented blind spot, not an error.
//
// The held-set analysis is a may-analysis: a lock held on some path
// into a block counts as held in it (union at joins), the conservative
// direction for deadlock and hold-across-blocking reporting. Within a
// block, Lock/RLock adds and Unlock/RUnlock removes in source order;
// TryLock variants never block and never extend the held set, so they
// contribute no deadlock edges. A deferred unlock runs at function
// exit, so `defer mu.Unlock()` leaves the lock held for the remainder
// of the body — exactly the region a blocking operation must not enter
// — while the summary exports no held state to callers at all: a
// function that releases everything it acquires (deferred or not) is
// opaque to its callers' held sets.

// lockKind classifies one sync.Mutex / sync.RWMutex method call.
type lockKind int

const (
	lockAcquire lockKind = iota // Lock, RLock
	lockRelease                 // Unlock, RUnlock
	lockTry                     // TryLock, TryRLock: non-blocking, untracked
)

// concAcquire is one direct Lock/RLock site with the held set at it.
type concAcquire struct {
	mu    *types.Var
	rlock bool
	pos   token.Pos
	held  []*types.Var
}

// concSummary is the per-function concurrency summary: direct
// acquisitions, plus the witness summary — blocking sites and
// module call edges, each with the held set at it. Sites carrying a
// //lint:holdok or //lint:allow blockhold are dropped while the summary
// is built, so a justified hold never poisons callers.
type concSummary struct {
	acquires []concAcquire
	summary
}

// concIndex is every body's summary, parallel to index.funcs, with the
// declared functions' summaries by object and the display name of every
// lock identity seen.
type concIndex struct {
	sums   []*concSummary
	byFunc map[*types.Func]*concSummary
	disp   map[*types.Var]string
}

// concurrency returns prog's concurrency summaries, building them on
// first use.
func (prog *Program) concurrency() *concIndex {
	idx := prog.index()
	idx.concOnce.Do(func() {
		c := &concIndex{byFunc: map[*types.Func]*concSummary{}, disp: map[*types.Var]string{}}
		for _, fn := range idx.funcs {
			sum := buildConcSummary(prog, fn, c.disp)
			c.sums = append(c.sums, sum)
			if fn.obj != nil {
				c.byFunc[fn.obj] = sum
			}
		}
		idx.conc = c
	})
	return idx.conc
}

// summaryOf is the witness-query view of declared fn's summary.
func (c *concIndex) summaryOf(fn *types.Func) *summary { return &c.byFunc[fn].summary }

// lockIdent resolves a mutex or channel expression to its identity
// variable and a stable display name ("(Batcher).mu", "serve.global",
// "local done"). nil when the expression has no variable identity.
func lockIdent(pkg *Package, e ast.Expr) (*types.Var, string) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := objOf(pkg, x).(*types.Var); ok {
			return v, identDisplay(v)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v, fieldDisplay(sel.Recv(), v)
			}
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v, identDisplay(v)
		}
	}
	return nil, ""
}

// identDisplay names a package-level or local variable.
func identDisplay(v *types.Var) string {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		p := v.Pkg().Path()
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p + "." + v.Name()
	}
	return v.Name()
}

// fieldDisplay names a struct field lock as "(Type).field".
func fieldDisplay(recv types.Type, v *types.Var) string {
	t := recv
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return "(" + named.Obj().Name() + ")." + v.Name()
	}
	return v.Name()
}

// mutexMethod classifies call as a sync.Mutex/RWMutex method and
// resolves the lock identity. ok is false for anything else (including
// sync.Locker interface calls, whose target lock is unknowable).
func mutexMethod(pkg *Package, call *ast.CallExpr) (kind lockKind, rlock bool, mu *types.Var, disp string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return 0, false, nil, "", false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, false, nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return 0, false, nil, "", false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return 0, false, nil, "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return 0, false, nil, "", false
	}
	switch fn.Name() {
	case "Lock":
		kind = lockAcquire
	case "RLock":
		kind, rlock = lockAcquire, true
	case "Unlock", "RUnlock":
		kind = lockRelease
	case "TryLock", "TryRLock":
		kind = lockTry
	default: // RLocker
		return 0, false, nil, "", false
	}
	mu, disp = lockIdent(pkg, sel.X)
	return kind, rlock, mu, disp, true
}

// blockingCall classifies a call to callee (by object — interface
// methods included, so net.Conn.Write and io.Reader.Read are caught
// through their interfaces) as a potentially-blocking operation.
// Deliberately scoped to the classes the serving tiers actually hit:
// sleeps, WaitGroup/Cond waits, fsync, net/io/bufio reads and writes,
// HTTP round-trips (the JSON-RPC transport), and streaming JSON codecs.
// Calls through plain function values stay a documented blind spot.
func blockingCall(callee *types.Func) (string, bool) {
	pkg := callee.Pkg()
	if pkg == nil {
		return "", false
	}
	path, name := pkg.Path(), callee.Name()
	recvName := ""
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recvName = named.Obj().Name()
		}
	}
	switch path {
	case "time":
		if name == "Sleep" {
			return "time.Sleep blocks", true
		}
	case "sync":
		if name == "Wait" && (recvName == "WaitGroup" || recvName == "Cond") {
			return "(sync." + recvName + ").Wait blocks", true
		}
	case "os":
		if recvName == "File" && name == "Sync" {
			return "(os.File).Sync (fsync) blocks on storage", true
		}
	case "io":
		switch name {
		case "ReadFull", "ReadAtLeast", "ReadAll", "Copy", "CopyN", "CopyBuffer", "WriteString",
			"Read", "Write": // the last two: io.Reader/io.Writer interface methods
			return "io." + name + " blocks on the underlying stream", true
		}
	case "net":
		switch name {
		case "Read", "Write", "Accept", "Dial", "DialTimeout", "Listen":
			return "net." + name + " blocks on the network", true
		}
	case "bufio":
		if recvName == "Reader" || recvName == "Writer" {
			switch name {
			case "Read", "ReadByte", "ReadBytes", "ReadString", "ReadSlice", "ReadLine",
				"Peek", "Discard", "Write", "WriteByte", "WriteString", "Flush":
				return "(bufio." + recvName + ")." + name + " blocks on the underlying stream", true
			}
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head", "Do":
			return "net/http round-trip (" + name + ") blocks", true
		}
	case "encoding/json":
		if (recvName == "Encoder" && name == "Encode") || (recvName == "Decoder" && name == "Decode") {
			return "(json." + recvName + ")." + name + " blocks on its stream", true
		}
	}
	return "", false
}

// concBuilder accumulates one function's summary.
type concBuilder struct {
	prog *Program
	pkg  *Package
	disp map[*types.Var]string
	sum  *concSummary

	selectOf   map[ast.Node]*ast.SelectStmt // comm statement → its select
	rangeChan  map[ast.Expr]bool            // X operands of range-over-channel
	flaggedSel map[*ast.SelectStmt]bool     // one block site per select
}

// buildConcSummary runs the held-set dataflow over fn's body and returns
// its summary. disp accumulates display names for every lock identity
// seen.
func buildConcSummary(prog *Program, fn *funcBody, disp map[*types.Var]string) *concSummary {
	b := &concBuilder{prog: prog, pkg: fn.pkg, disp: disp,
		sum:        &concSummary{},
		selectOf:   map[ast.Node]*ast.SelectStmt{},
		rangeChan:  map[ast.Expr]bool{},
		flaggedSel: map[*ast.SelectStmt]bool{},
	}
	b.prewalk(fn.body)

	cfg := BuildCFG(fn.body)
	entry := b.heldFixpoint(cfg)

	for _, blk := range cfg.Blocks {
		held := copyHeld(entry[blk])
		for _, n := range blk.Nodes {
			b.walkNode(n, held, true)
		}
	}
	return b.sum
}

// prewalk indexes the select and range-over-channel structure the flat
// block scan cannot see: which comm statements belong to which select,
// and which range operands are channels. Function literals are
// deliberately included — harmless for this body (their comms never
// appear in its blocks) and their own builder call reuses nothing.
func (b *concBuilder) prewalk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					b.selectOf[comm] = st
				}
			}
		case *ast.RangeStmt:
			if tv, ok := b.pkg.Info.Types[st.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					b.rangeChan[st.X] = true
				}
			}
		}
		return true
	})
}

// heldFixpoint computes the may-held set at entry to every block.
func (b *concBuilder) heldFixpoint(cfg *CFG) map[*Block]map[*types.Var]bool {
	entry := map[*Block]map[*types.Var]bool{}
	for _, blk := range cfg.Blocks {
		entry[blk] = map[*types.Var]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			held := copyHeld(entry[blk])
			for _, n := range blk.Nodes {
				b.walkNode(n, held, false)
			}
			for _, s := range blk.Succs {
				for v := range held {
					if !entry[s][v] {
						entry[s][v] = true
						changed = true
					}
				}
			}
		}
	}
	return entry
}

func copyHeld(m map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(m))
	for v := range m {
		out[v] = true
	}
	return out
}

// heldSnapshot freezes the current held set, sorted by display name for
// deterministic reporting.
func (b *concBuilder) heldSnapshot(held map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(held))
	for v := range held {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return b.disp[out[i]] < b.disp[out[j]] })
	return out
}

// suppressedSite reports whether a blockhold site at pos carries a
// holdok directive or an ordinary allow — folded into the summary so a
// justified site never poisons callers.
func (b *concBuilder) suppressedSite(pos token.Pos) bool {
	p, idx := b.prog.Fset.Position(pos), b.prog.index()
	return idx.covers("holdok", "blockhold", p) || idx.covers("allow", "blockhold", p)
}

func (b *concBuilder) site(pos token.Pos, what string, held map[*types.Var]bool) {
	if b.suppressedSite(pos) {
		return
	}
	b.sum.sites = append(b.sum.sites, site{pos: pos, what: what, held: b.heldSnapshot(held)})
}

// walkNode applies one block node to the held set in source order,
// recording acquire/call/block sites when emit is set. Function
// literals are atoms; deferred calls run at exit, so a deferred unlock
// does not release the lock mid-body and other deferred calls are
// exempt from blocking classification (the teardown path runs after
// the critical section's own operations).
func (b *concBuilder) walkNode(n ast.Node, held map[*types.Var]bool, emit bool) {
	if expr, ok := n.(ast.Expr); ok && b.rangeChan[expr] {
		if emit {
			b.site(n.Pos(), "ranging over a channel blocks between elements", held)
		}
		return
	}
	if stmt, ok := n.(ast.Stmt); ok {
		if sel := b.selectOf[stmt]; sel != nil {
			if emit && !selectHasDefault(sel) && !b.flaggedSel[sel] {
				b.flaggedSel[sel] = true
				b.site(sel.Pos(), "select without a default clause blocks", held)
			}
			return
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if emit {
				b.site(e.Arrow, "channel send may block", held)
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && emit {
				b.site(e.OpPos, "channel receive may block", held)
			}
		case *ast.CallExpr:
			b.handleCall(e, held, emit)
			return true
		}
		return true
	})
}

func (b *concBuilder) handleCall(call *ast.CallExpr, held map[*types.Var]bool, emit bool) {
	if kind, rlock, mu, disp, ok := mutexMethod(b.pkg, call); ok {
		if mu == nil {
			return // unresolvable lock expression: documented blind spot
		}
		switch kind {
		case lockAcquire:
			if emit {
				b.disp[mu] = disp
				b.sum.acquires = append(b.sum.acquires, concAcquire{
					mu: mu, rlock: rlock, pos: call.Pos(), held: b.heldSnapshot(held)})
			}
			held[mu] = true
			b.disp[mu] = disp
		case lockRelease:
			delete(held, mu)
		}
		return
	}
	callee := staticCalleeFunc(b.pkg, call)
	if callee == nil {
		return // function-value call: documented blind spot
	}
	if what, blocking := blockingCall(callee); blocking {
		if emit {
			b.site(call.Pos(), what, held)
		}
		return
	}
	if emit && moduleMember(b.prog, callee.Pkg()) {
		// Call edges are never dropped by holdok here: lockorder chases
		// acquisitions through them, and a blocking justification must
		// not hide a deadlock edge. blockhold applies holdok to its
		// call-edge findings at emission instead.
		b.sum.calls = append(b.sum.calls, edge{callee: callee, pos: call.Pos(), held: b.heldSnapshot(held)})
	}
}

// chanFacts is the module-wide channel inventory goleak and the channel
// proof rules consult: which channel identities are ever closed, and
// which are created with a capacity (a send to a buffered channel under
// an admission protocol is treated as non-wedging).
type chanFacts struct {
	closed   map[*types.Var]bool
	buffered map[*types.Var]bool
}

// collectChanFacts scans every file (function literals included) for
// close(ch) calls and buffered make(chan T, n) assignments — plain
// assignments, declarations, and struct-literal field values. A
// non-constant capacity expression counts as buffered: the repo's
// queues size their channels from a config value, and a deliberately
// zero capacity spelled through a variable is outside the model.
func collectChanFacts(prog *Program) *chanFacts {
	f := &chanFacts{closed: map[*types.Var]bool{}, buffered: map[*types.Var]bool{}}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			p := pkg
			ast.Inspect(file, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					if len(e.Args) == 1 && builtinName(p, e) == "close" {
						if v, _ := lockIdent(p, e.Args[0]); v != nil {
							f.closed[v] = true
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range e.Rhs {
						if i < len(e.Lhs) && bufferedChanMake(p, rhs) {
							if v, _ := lockIdent(p, e.Lhs[i]); v != nil {
								f.buffered[v] = true
							}
						}
					}
				case *ast.ValueSpec:
					for i, val := range e.Values {
						if i < len(e.Names) && bufferedChanMake(p, val) {
							if v, ok := p.Info.Defs[e.Names[i]].(*types.Var); ok {
								f.buffered[v] = true
							}
						}
					}
				case *ast.KeyValueExpr:
					if bufferedChanMake(p, e.Value) {
						if key, ok := e.Key.(*ast.Ident); ok {
							if v, ok := p.Info.Uses[key].(*types.Var); ok {
								f.buffered[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return f
}

// bufferedChanMake reports whether e is make(chan T, n) with n not
// constant zero.
func bufferedChanMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || builtinName(pkg, call) != "make" {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	if capTV, ok := pkg.Info.Types[call.Args[1]]; ok && capTV.Value != nil {
		return capTV.Value.String() != "0"
	}
	return true
}

// displayHeld renders a sorted held set for a finding message.
func displayHeld(disp map[*types.Var]string, held []*types.Var) string {
	names := make([]string, len(held))
	for i, v := range held {
		names[i] = disp[v]
	}
	return strings.Join(names, ", ")
}
