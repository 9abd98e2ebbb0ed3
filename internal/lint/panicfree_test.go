package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePanicFree targets the fixture's wire package instead of the
// production entry points.
func fixturePanicFree() *PanicFreeWire {
	return &PanicFreeWire{Entries: []WireEntry{
		{Pkg: "wire", File: "wire.go", Prefixes: []string{"Read", "read"}},
		{Pkg: "relaydemo", File: "relaydemo.go", Prefixes: []string{"handle", "dispatch", "backend"}},
	}}
}

func TestPanicFreeWireFixture(t *testing.T) {
	prog := fixture(t)
	p := fixturePanicFree()
	got := map[string]bool{}
	for _, f := range Run(prog, []Pass{p}) {
		if f.Pass != p.Name() {
			continue
		}
		got[keyOf(prog, f)] = true
	}
	want := wantMarkers(prog, p.Name())
	if len(want) == 0 {
		t.Fatal("fixture has no panicfree-wire markers")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("reachable panic at %s not flagged", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding at %s (unreachable or error-returning form flagged)", key)
		}
	}
}

func keyOf(prog *Program, f Finding) string {
	return fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
}

// The transitive finding must report its call path so the reader can see
// how the wire boundary reaches the panic.
func TestPanicFreeWireReportsCallPath(t *testing.T) {
	prog := fixture(t)
	var transitive, cross bool
	for _, f := range fixturePanicFree().Run(prog) {
		if strings.Contains(f.Message, "wire.ReadTransitive") && strings.Contains(f.Message, "→") {
			transitive = true
		}
		if strings.Contains(f.Message, "wire.ReadCross") && strings.Contains(f.Message, "ring.Explode") {
			cross = true
		}
	}
	if !transitive {
		t.Error("transitive panic finding lacks its call path")
	}
	if !cross {
		t.Error("cross-package panic finding lacks its call path")
	}
}

// The production entry points must exist: a typo in a file name would
// silently disable the pass.
func TestPanicFreeWireProductionEntriesResolve(t *testing.T) {
	prog := repo(t)
	for _, e := range NewPanicFreeWire().Entries {
		pkg := prog.ByPath[prog.ModulePath+"/"+e.Pkg]
		if pkg == nil {
			t.Errorf("entry package %s not in module", e.Pkg)
			continue
		}
		found := false
		for _, file := range pkg.Files {
			pos := prog.Fset.Position(file.Package)
			if strings.HasSuffix(pos.Filename, "/"+e.File) {
				found = true
			}
		}
		if !found {
			t.Errorf("entry file %s/%s not in module", e.Pkg, e.File)
		}
	}
}
