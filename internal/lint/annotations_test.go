package lint

import (
	"go/types"
	"sort"
	"testing"
)

// TestCollectAnnotations pins the -allows audit inventory: every
// directive kind is listed with its consuming pass and justification,
// in deterministic (file, line, kind) order.
func TestCollectAnnotations(t *testing.T) {
	prog := miniModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"a/a.go": `package a

//lint:noalloc
func Kernel(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

//lint:domain a:<q -> out:<2q
func Lazy(a uint64) uint64 { return a + a }

func Grow(buf []uint64, n int) []uint64 {
	//lint:prealloc arena refill amortized over session
	return append(buf[:0], make([]uint64, n)...)
}

func Suppress() {
	_ = make([]int, 1) //lint:allow modguard demo reason here
}

func Declass(x uint64) uint64 {
	//lint:declassify provably public length
	return x
}
`,
	})
	annots := CollectAnnotations(prog)
	if len(annots) != 5 {
		t.Fatalf("want 5 annotations, got %d: %+v", len(annots), annots)
	}
	if !sort.SliceIsSorted(annots, func(i, j int) bool {
		a, b := annots[i], annots[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Kind < b.Kind
	}) {
		t.Error("annotations not sorted by (file, line, kind)")
	}
	byKind := map[string]Annotation{}
	for _, a := range annots {
		byKind[a.Kind] = a
	}
	checks := []struct{ kind, pass, detail string }{
		{"noalloc", "noalloc", ""},
		{"domain", "moddomain", "a:<q -> out:<2q"},
		{"prealloc", "noalloc", "arena refill amortized over session"},
		{"allow", "modguard", "demo reason here"},
		{"declassify", "secrettaint", "provably public length"},
	}
	for _, c := range checks {
		a, ok := byKind[c.kind]
		if !ok {
			t.Errorf("no %s annotation collected", c.kind)
			continue
		}
		if a.Pass != c.pass || a.Detail != c.detail {
			t.Errorf("%s: got pass=%q detail=%q, want pass=%q detail=%q",
				c.kind, a.Pass, a.Detail, c.pass, c.detail)
		}
	}
}

// TestAnnotationInventoryCoversRealModule sanity-checks the audit over
// the production tree: the long-standing scratchalias allow (the
// engine's lane constructor) must be present and justified.
func TestAnnotationInventoryCoversRealModule(t *testing.T) {
	annots := CollectAnnotations(repo(t))
	scratch := 0
	for _, a := range annots {
		if a.Kind == "allow" && a.Pass == "scratchalias" {
			scratch++
			if a.Detail == "" {
				t.Errorf("unjustified scratchalias allow at %s:%d", a.Pos.Filename, a.Pos.Line)
			}
		}
	}
	if scratch != 1 {
		t.Errorf("want the 1 audited scratchalias allow, got %d", scratch)
	}
}

// TestScratchTypesOfRealModule: every per-worker staging type of the
// production tree is scratch to scratchalias, and the read-only plans
// that workers share are not. fbs.Evaluator is scratch while it holds the
// warm Scratch of its bench-only Evaluate wrapper.
func TestScratchTypesOfRealModule(t *testing.T) {
	prog := repo(t)
	memo := map[types.Type]int{}
	for _, c := range []struct {
		pkg, name string
		scratch   bool
	}{
		{"athena/internal/bfv", "Evaluator", true},
		{"athena/internal/bfv", "Encoder", true},
		{"athena/internal/pack", "Scratch", true},
		{"athena/internal/pack", "TransformScratch", true},
		{"athena/internal/fbs", "Scratch", true},
		{"athena/internal/lwe", "Switcher", true},
		{"athena/internal/pack", "Packer", false},
		{"athena/internal/pack", "Transform", false},
		{"athena/internal/fbs", "Evaluator", true},
	} {
		pkg := prog.ByPath[c.pkg]
		if pkg == nil {
			t.Fatalf("package %s not loaded", c.pkg)
		}
		obj := pkg.Types.Scope().Lookup(c.name)
		if obj == nil {
			t.Fatalf("%s.%s not found", c.pkg, c.name)
		}
		if got := isScratchType(prog, obj.Type(), memo); got != c.scratch {
			t.Errorf("%s.%s: scratch = %v, want %v", c.pkg, c.name, got, c.scratch)
		}
	}
}
