// Command athena-bench regenerates every table and figure of the
// paper's evaluation section as text. The cheap experiments (parameter
// tables, simulator-driven performance studies) run by default; the
// accuracy studies (which train models) run with -accuracy, sized by
// -samples.
//
//	athena-bench                 # tables 1-4, 6-9, figs 1, 8-13 (perf)
//	athena-bench -accuracy       # adds table 5, fig 4, fig 12 (accuracy)
//	athena-bench -only table6    # a single experiment
//
// Measured performance (kernels, inference, serving, cluster) is the
// job of the repository's benchmark, bench/ — see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"athena/internal/report"
)

func main() {
	accuracy := flag.Bool("accuracy", false, "run the model-training accuracy studies (slow)")
	samples := flag.Int("samples", 200, "test samples per model for the accuracy studies")
	skip56 := flag.Bool("skip-resnet56", false, "skip ResNet-56 in the accuracy studies")
	only := flag.String("only", "", "run a single experiment (e.g. table6, fig9)")
	flag.Parse()

	cfg := report.DefaultAccuracyConfig()
	cfg.TestSamples = *samples
	cfg.SkipResNet56 = *skip56

	experiments := []struct {
		name string
		slow bool
		fn   func() string
	}{
		{"table1", false, report.Table1},
		{"fig1", false, func() string { return report.Fig1(27) }},
		{"fig1model", true, func() string { return report.Fig1Model(cfg) }},
		{"table2", false, report.Table2},
		{"table3", false, report.Table3},
		{"table4", false, report.Table4},
		{"fig4", true, func() string { return report.Fig4(cfg) }},
		{"table5", true, func() string { return report.Table5(cfg) }},
		{"table6", false, report.Table6},
		{"table7", false, report.Table7},
		{"table8", false, report.Table8},
		{"table9", false, report.Table9},
		{"fig8", false, report.Fig8},
		{"fig9", false, report.Fig9},
		{"fig10", false, report.Fig10},
		{"fig11", false, report.Fig11},
		{"fig12perf", false, report.Fig12Perf},
		{"fig12acc", true, func() string { return report.Fig12Accuracy(cfg) }},
		{"fig13", false, report.Fig13},
		{"ablations", false, report.Ablations},
		{"throughput", false, report.Throughput},
		{"security", false, report.Security},
	}

	ran := 0
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(e.name, *only) {
			continue
		}
		if e.slow && !*accuracy && *only == "" {
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", e.name, e.fn())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment named %q\n", *only)
		os.Exit(1)
	}
}
