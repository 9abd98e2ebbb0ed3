// Command athena-lint runs the FHE-aware static-analysis suite over the
// module. The syntactic passes — modguard, cryptorand, parsafe,
// panicfree-wire, errdrop — are joined by the interprocedural dataflow
// passes: secrettaint (secret-key material reaching wire encoders or
// fmt/log), scratchalias (shared evaluator/encoder scratch captured by
// worker closures), moddomain (lazy-reduction domain mixing across
// internal/ring kernels), noalloc (//lint:noalloc hot paths proven
// heap-allocation-free through their static call trees), and the
// concurrency-soundness trio: lockorder (module-wide mutex order graph
// kept acyclic and re-acquisition-free), blockhold (no blocking
// operation while a mutex is held, escape hatch //lint:holdok), and
// goleak (every go statement needs a provable termination signal). See
// internal/lint for the pass catalog and the annotation grammar. It is
// the gate every PR runs:
//
//	go run ./cmd/athena-lint ./...
//	go run ./cmd/athena-lint -json ./... > findings.json
//	go run ./cmd/athena-lint -sarif ./... > findings.sarif
//	go run ./cmd/athena-lint -allows
//	go run ./cmd/athena-lint -list
//	go run ./cmd/athena-lint -passes modguard,parsafe ./internal/lwe/...
//
// Findings print sorted by (file, line, pass), so runs are diffable;
// -json emits the same ordering as a JSON array (always an array, [] on
// a clean run) and -sarif as a SARIF 2.1.0 log (one run, one result per
// finding, rule metadata from the pass catalog) for code-scanning
// upload. -allows audits every //lint:allow / declassify / domain /
// holdok / noalloc / prealloc annotation with its justification.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings
// are suppressed in source with `//lint:allow <pass> <reason>`; the
// reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"athena/internal/lint"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// jsonAnnotation is the -allows -json wire form of one annotation.
type jsonAnnotation struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Kind   string `json:"kind"`
	Pass   string `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list the available passes and exit")
	passNames := flag.String("passes", "", "comma-separated subset of passes to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings (or -allows annotations) as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log for code-scanning upload")
	allows := flag.Bool("allows", false, "audit mode: list every lint annotation with its justification and exit")
	flag.Parse()

	if *list {
		for _, p := range lint.AllPasses() {
			fmt.Printf("%-16s %s\n", p.Name(), p.Doc())
		}
		return
	}

	passes := lint.AllPasses()
	if *passNames != "" {
		passes = passes[:0]
		for _, name := range strings.Split(*passNames, ",") {
			p := lint.PassByName(strings.TrimSpace(name))
			if p == nil {
				fmt.Fprintf(os.Stderr, "athena-lint: unknown pass %q (try -list)\n", name)
				os.Exit(2)
			}
			passes = append(passes, p)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "athena-lint:", err)
		os.Exit(2)
	}
	prog, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "athena-lint:", err)
		os.Exit(2)
	}

	if *allows {
		auditAllows(prog, root, *jsonOut)
		return
	}

	findings := lint.Run(prog, passes)
	findings = filterByPatterns(findings, root, flag.Args())
	for i := range findings {
		if r, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = r
		}
	}
	if *sarifOut {
		if err := writeSARIF(os.Stdout, passes, findings); err != nil {
			fmt.Fprintln(os.Stderr, "athena-lint:", err)
			os.Exit(2)
		}
	} else if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Pass: f.Pass, Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "athena-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "athena-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// auditAllows prints the annotation inventory.
func auditAllows(prog *lint.Program, root string, jsonOut bool) {
	annots := lint.CollectAnnotations(prog)
	for i := range annots {
		if r, err := filepath.Rel(root, annots[i].Pos.Filename); err == nil {
			annots[i].Pos.Filename = r
		}
	}
	if jsonOut {
		out := make([]jsonAnnotation, 0, len(annots))
		for _, a := range annots {
			out = append(out, jsonAnnotation{
				File: a.Pos.Filename, Line: a.Pos.Line,
				Kind: a.Kind, Pass: a.Pass, Detail: a.Detail,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "athena-lint:", err)
			os.Exit(2)
		}
		return
	}
	for _, a := range annots {
		fmt.Println(a.String())
	}
	fmt.Fprintf(os.Stderr, "athena-lint: %d annotation(s)\n", len(annots))
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// filterByPatterns keeps findings under the directories named by
// go-style package patterns ("./...", "./internal/lwe", ...). With no
// patterns (or "./..."), everything is kept.
func filterByPatterns(findings []lint.Finding, root string, patterns []string) []lint.Finding {
	var prefixes []string
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "...")
		pat = strings.TrimSuffix(pat, "/")
		if pat == "." || pat == "./" || pat == "" {
			return findings
		}
		prefixes = append(prefixes, filepath.Join(root, filepath.FromSlash(pat)))
	}
	if len(prefixes) == 0 {
		return findings
	}
	var kept []lint.Finding
	for _, f := range findings {
		for _, p := range prefixes {
			if strings.HasPrefix(f.Pos.Filename, p) {
				kept = append(kept, f)
				break
			}
		}
	}
	return kept
}
