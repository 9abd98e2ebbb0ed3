package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked module package.
type Package struct {
	PkgPath string // full import path ("athena/internal/ring")
	Dir     string // absolute directory
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Program is the loaded module: every non-test package, type-checked in
// dependency order against a shared FileSet.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string // absolute module root (directory holding go.mod)
	Packages   []*Package
	ByPath     map[string]*Package
	// Generated marks the absolute filenames carrying a standard
	// "Code generated … DO NOT EDIT." header. They are loaded (their
	// declarations participate in type-checking) but findings located in
	// them are dropped by Run: generated code is fixed at its generator.
	Generated map[string]bool

	idxOnce sync.Once
	idx     *index // see index.go
}

// LoadModule parses and type-checks every non-test package under root,
// which must contain a go.mod. Standard-library imports are resolved
// from source (no export data needed), module-internal imports from the
// packages being loaded; external module dependencies are unsupported —
// by design, since the repo's go.mod stays bare.
func LoadModule(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{Fset: fset, ModulePath: modPath, Root: root,
		ByPath: map[string]*Package{}, Generated: map[string]bool{}}

	// Discover and parse every package directory.
	parsed := map[string]*Package{} // pkgPath -> package with Files set
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, path, prog.Generated)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[pkgPath] = &Package{PkgPath: pkgPath, Dir: path, Files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check in topological order of module-internal imports.
	order, err := topoOrder(parsed, modPath)
	if err != nil {
		return nil, err
	}
	srcImporter := importer.ForCompiler(fset, "source", nil)
	done := map[string]*types.Package{}
	imp := &chainImporter{std: srcImporter, module: done}
	for _, pkgPath := range order {
		pkg := parsed[pkgPath]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, cerr := conf.Check(pkgPath, fset, pkg.Files, info)
		if cerr != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, cerr)
		}
		pkg.Types = tpkg
		pkg.Info = info
		done[pkgPath] = tpkg
		prog.Packages = append(prog.Packages, pkg)
		prog.ByPath[pkgPath] = pkg
	}
	return prog, nil
}

// parseDir parses the non-test buildable .go files directly in dir,
// recording generated files in generated.
func parseDir(fset *token.FileSet, dir string, generated map[string]bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			hasPlatformSuffix(name) {
			continue
		}
		full := filepath.Join(dir, name)
		f, perr := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		if ignoredByBuildTag(f) {
			continue
		}
		if isGeneratedFile(f) {
			generated[full] = true
		}
		files = append(files, f)
	}
	return files, nil
}

// platformSuffixes are the GOOS/GOARCH filename suffixes the loader
// excludes unconditionally: the lint view of the module must be the same
// on every host, so platform-specific files never participate. The repo
// has none; the list exists so one appearing later cannot make lint
// results host-dependent.
var platformSuffixes = []string{
	"linux", "darwin", "windows", "freebsd", "openbsd", "netbsd", "js", "wasip1", "plan9",
	"amd64", "arm64", "arm", "386", "riscv64", "ppc64le", "s390x", "wasm", "mips64",
}

func hasPlatformSuffix(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	for _, suf := range platformSuffixes {
		if strings.HasSuffix(base, "_"+suf) {
			return true
		}
	}
	return false
}

// ignoredByBuildTag reports whether the file's build constraints exclude
// it from the lint build. Constraints are evaluated with every tag
// false — deterministically host-independent: `//go:build ignore` and
// `//go:build linux` are skipped everywhere, `//go:build !someflag` is
// kept everywhere. Files with no constraint are always kept.
func ignoredByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: treat as unconstrained
			}
			if !expr.Eval(func(tag string) bool { return false }) {
				return true
			}
		}
	}
	return false
}

// generatedRx matches the standard generated-file header mandated by
// https://go.dev/s/generatedcode.
var generatedRx = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGeneratedFile reports whether f carries the conventional generated
// header before its package clause.
func isGeneratedFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRx.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// moduleImports returns pkg's imports that live inside the module.
func moduleImports(pkg *Package, modPath string) []string {
	seen := map[string]bool{}
	var deps []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if (path == modPath || strings.HasPrefix(path, modPath+"/")) && !seen[path] {
				seen[path] = true
				deps = append(deps, path)
			}
		}
	}
	sort.Strings(deps)
	return deps
}

// topoOrder sorts the parsed packages so every package follows its
// module-internal dependencies.
func topoOrder(parsed map[string]*Package, modPath string) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		finished  = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case finished:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		pkg, ok := parsed[path]
		if !ok {
			return fmt.Errorf("lint: package %s imported but not found in module", path)
		}
		for _, dep := range moduleImports(pkg, modPath) {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = finished
		order = append(order, path)
		return nil
	}
	var roots []string
	for path := range parsed {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	for _, path := range roots {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-internal packages from the in-progress
// load and everything else (the standard library) from source.
type chainImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.module[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (athena-lint must run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
