package lint

import "testing"

// lintSink keeps the benchmarked Run calls from being optimized away.
var lintSink []Finding

// BenchmarkLint times the passes over the real module, one sub-benchmark
// per pass plus "all" for the full suite. The module is loaded once,
// outside the timer; every iteration lints a fresh Program over the
// loaded packages, so whatever the passes derive from them is rebuilt
// per iteration, as in one athena-lint run.
//
//	go test -run '^$' -bench Lint -benchtime 10x ./internal/lint
func BenchmarkLint(b *testing.B) {
	loaded := repo(b)
	fresh := func() *Program {
		return &Program{Fset: loaded.Fset, ModulePath: loaded.ModulePath, Root: loaded.Root,
			Packages: loaded.Packages, ByPath: loaded.ByPath, Generated: loaded.Generated}
	}
	for _, p := range AllPasses() {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lintSink = Run(fresh(), []Pass{p})
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lintSink = Run(fresh(), AllPasses())
		}
	})
}
