package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	fixtureOnce sync.Once
	fixtureProg *Program
	fixtureErr  error
)

// fixture loads testdata/fixture once per test binary: the source
// importer resolves the standard library from source, which dominates
// the cost.
func fixture(t *testing.T) *Program {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureProg, fixtureErr = LoadModule(filepath.Join("testdata", "fixture"))
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureProg
}

// wantMarkers collects "// want <pass>" comments from the fixture
// sources, keyed "basename:line" — the line a finding must land on.
func wantMarkers(prog *Program, pass string) map[string]bool {
	want := map[string]bool{}
	marker := "want " + pass
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text != marker {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					want[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = true
				}
			}
		}
	}
	return want
}

// checkPassAgainstMarkers runs one pass through the full pipeline
// (allowlist applied) and compares its findings position-for-position
// with the fixture's want markers.
func checkPassAgainstMarkers(t *testing.T, p Pass) {
	t.Helper()
	prog := fixture(t)
	got := map[string]bool{}
	for _, f := range Run(prog, []Pass{p}) {
		if f.Pass != p.Name() {
			continue // allowdemo's malformed directives, tested separately
		}
		got[fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)] = true
	}
	want := wantMarkers(prog, p.Name())
	if len(want) == 0 {
		t.Fatalf("fixture has no markers for pass %s", p.Name())
	}
	for key := range want {
		if !got[key] {
			t.Errorf("%s: seeded violation at %s not flagged", p.Name(), key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("%s: unexpected finding at %s (fixed or allowed form flagged)", p.Name(), key)
		}
	}
}

func TestLoadModuleFixture(t *testing.T) {
	prog := fixture(t)
	if prog.ModulePath != "fixture" {
		t.Fatalf("module path %q, want fixture", prog.ModulePath)
	}
	for _, path := range []string{
		"fixture/internal/ring", "fixture/internal/par", "fixture/internal/lwe",
		"fixture/internal/bfv", "fixture/internal/serve", "fixture/internal/core",
		"fixture/modfix", "fixture/parfix", "fixture/wire",
		"fixture/taintdemo", "fixture/scratchdemo", "fixture/lazydemo",
		"fixture/allocdemo", "fixture/lockdemo", "fixture/holddemo",
		"fixture/goleakdemo",
	} {
		pkg := prog.ByPath[path]
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		if len(pkg.Files) == 0 || pkg.Types == nil || pkg.Info == nil {
			t.Fatalf("package %s loaded without files or type info", path)
		}
	}
	// Dependency order: ring before its importers.
	seen := map[string]int{}
	for i, pkg := range prog.Packages {
		seen[pkg.PkgPath] = i
	}
	if seen["fixture/internal/ring"] > seen["fixture/modfix"] {
		t.Fatal("packages not in dependency order")
	}
}

func TestAllowlistMalformedDirectives(t *testing.T) {
	prog := fixture(t)
	bad := prog.index().bad["allowlist"]
	wantMsgs := []struct{ file, msg string }{
		{"allowdemo.go", "missing pass name"},
		{"allowdemo.go", `unknown pass "nosuchpass"`},
		{"allowdemo.go", "has no reason"},
		// Near misses: a kind followed by more letters names no kind.
		{"allowdemo.go", "unknown directive lint:declassifying"},
		{"allowdemo.go", "unknown directive lint:preallocated"},
		{"holddemo.go", "unknown directive lint:holdokay"},
		{"allocdemo.go", "unknown directive lint:noaloc"},
	}
	for _, want := range wantMsgs {
		found := false
		for _, f := range bad {
			if f.Pass == "allowlist" && strings.Contains(f.Message, want.msg) &&
				filepath.Base(f.Pos.Filename) == want.file {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allowlist finding in %s containing %q", want.file, want.msg)
		}
	}
	if len(bad) != len(wantMsgs) {
		t.Errorf("%d malformed-directive findings, want %d: %v", len(bad), len(wantMsgs), bad)
	}
	// Malformed directives must also survive the full pipeline.
	all := Run(prog, nil)
	if len(all) != len(wantMsgs) {
		t.Errorf("Run with no passes returned %d findings, want the %d allowlist ones", len(all), len(wantMsgs))
	}
}

func TestWellFormedAllowsSuppress(t *testing.T) {
	n := 0
	for key, byLine := range fixture(t).index().lines {
		for _, passes := range byLine {
			if key.kind == "allow" {
				n += len(passes)
			}
		}
	}
	// modfix and allocdemo have two each; bfv, parfix, scratchdemo
	// (scratchalias), lazydemo (moddomain), internal/core (errdrop), and
	// goleakdemo (goleak) one each.
	if n != 10 {
		t.Fatalf("%d well-formed allow directives, want 10", n)
	}
}

// TestRepoIsClean lints the real module: the production tree must stay
// at zero findings (the same gate CI runs via cmd/athena-lint).
func TestRepoIsClean(t *testing.T) {
	if fs := Run(repo(t), AllPasses()); len(fs) != 0 {
		for _, f := range fs {
			t.Error(f)
		}
	}
}
