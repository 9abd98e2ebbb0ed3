package lint

import "fmt"

// BlockHold flags potentially-blocking operations reached while a
// mutex is statically held — the lock-held-across-IO stalls that turn
// one slow peer into whole-server tail latency. Blocking operations
// (conc.go's blockingCall table plus raw channel sends/receives,
// selects without a default clause, and range-over-channel) are
// combined with the per-function may-held dataflow; a site with a
// non-empty held set is a finding, and so is a held call into a module
// function that transitively blocks — the index's first-witness query
// over the shared concurrency summaries, with a witness chain.
//
// A select with a default clause is non-blocking by construction and
// never flagged; a deliberate short critical section is annotated on
// the operation's line (or the line above) with
//
//	//lint:holdok <reason>
//
// and the reason is mandatory — a bare holdok is itself a finding.
// Annotated sites are folded into the summaries, so a justified hold
// inside a callee does not poison its callers. Deferred calls are
// exempt (teardown runs after the critical section), and `defer
// mu.Unlock()` keeps the lock held for the rest of the body — blocking
// there is still flagged — while exporting no held state to callers.
type BlockHold struct{}

// Name implements Pass.
func (*BlockHold) Name() string { return "blockhold" }

// Doc implements Pass.
func (*BlockHold) Doc() string {
	return "no blocking operation (channel op, net/io read-write, fsync, sleep, Wait, RPC) while a mutex is held (interprocedural, CFG-based); justify with //lint:holdok <reason>"
}

// Run implements Pass.
func (p *BlockHold) Run(prog *Program) []Finding {
	idx, conc := prog.index(), prog.concurrency()
	findings := idx.malformed("blockhold")
	blocks := idx.reaches(prog, conc.summaryOf)
	for i, fn := range idx.funcs {
		sum := conc.sums[i]
		for _, s := range sum.sites {
			if len(s.held) == 0 {
				continue
			}
			findings = append(findings, Finding{Pass: "blockhold", Pos: prog.Fset.Position(s.pos),
				Message: fmt.Sprintf("%s: %s while holding %s (justify a deliberate short critical section with //lint:holdok <reason>)",
					fn.name, s.what, displayHeld(conc.disp, s.held))})
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 || idx.covers("holdok", "blockhold", prog.Fset.Position(c.pos)) {
				continue
			}
			if w := blocks(c.callee); w != "" {
				findings = append(findings, Finding{Pass: "blockhold", Pos: prog.Fset.Position(c.pos),
					Message: fmt.Sprintf("%s: call blocks while holding %s: %s (justify with //lint:holdok <reason>)",
						fn.name, displayHeld(conc.disp, c.held), w)})
			}
		}
	}
	return findings
}
