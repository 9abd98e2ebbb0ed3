package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	repoOnce sync.Once
	repoProg *Program
	repoErr  error
)

// repo loads the real module once per test binary.
func repo(t testing.TB) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	repoOnce.Do(func() {
		repoProg, repoErr = LoadModule(filepath.Join("..", ".."))
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoProg
}

// fixturePasses is the full suite with panicfree-wire pointed at the
// fixture's wire entry points.
func fixturePasses() []Pass {
	passes := AllPasses()
	for i, p := range passes {
		if p.Name() == "panicfree-wire" {
			passes[i] = fixturePanicFree()
		}
	}
	return passes
}

// relTo makes a finding or annotation filename module-relative, the way
// cmd/athena-lint prints it.
func relTo(prog *Program, filename string) string {
	if r, err := filepath.Rel(prog.Root, filename); err == nil {
		return r
	}
	return filename
}

// allowsLines renders the -allows inventory as cmd/athena-lint prints it.
func allowsLines(prog *Program) []string {
	var out []string
	for _, a := range CollectAnnotations(prog) {
		a.Pos.Filename = relTo(prog, a.Pos.Filename)
		out = append(out, a.String())
	}
	return out
}

// checkGolden compares got line-for-line with testdata/golden/name. The
// files read as the CLI prints: `athena-lint ./...` (for
// fixture.findings, with panicfree-wire's entries swapped for the
// fixture's, as fixturePasses does) and `athena-lint -allows`, from the
// module root. On a mismatch the full output is logged, to be copied
// into the file when the change is deliberate.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s: line %d differs (%d lines, want %d)\n got: %s\nwant: %s", name, i+1, len(got), len(want), g, w)
			t.Logf("%s now reads:\n%s", name, strings.Join(got, "\n"))
			return
		}
	}
}

// TestFixtureFindingsGolden pins every finding's message and witness
// chain on the fixture, not just its position.
func TestFixtureFindingsGolden(t *testing.T) {
	prog := fixture(t)
	var got []string
	for _, f := range Run(prog, fixturePasses()) {
		f.Pos.Filename = relTo(prog, f.Pos.Filename)
		got = append(got, f.String())
	}
	checkGolden(t, "fixture.findings", got)
}

// TestAllowsGolden pins the -allows inventory of the fixture and of the
// real module.
func TestAllowsGolden(t *testing.T) {
	checkGolden(t, "fixture.allows", allowsLines(fixture(t)))
	checkGolden(t, "repo.allows", allowsLines(repo(t)))
}
