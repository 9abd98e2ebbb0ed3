package compiler

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"athena/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_totals.golden")

// TestTraceTotalsGolden pins what the simulator is fed: the step count
// and per-category operation counts of the trace of every benchmark at
// w7a7, of ResNet-20 at w6a7 and w8a8, and of the batches the
// throughput study reads (report.Throughput), all at FullParams. A
// change that moves an entry changes what every simulated table prices.
func TestTraceTotalsGolden(t *testing.T) {
	type row struct {
		model string
		w, a  int
		batch int
	}
	rows := []row{
		{model: "MNIST", w: 7, a: 7, batch: 1},
		{model: "LeNet", w: 7, a: 7, batch: 1},
		{model: "ResNet-20", w: 7, a: 7, batch: 1},
		{model: "ResNet-56", w: 7, a: 7, batch: 1},
		{model: "ResNet-20", w: 6, a: 7, batch: 1},
		{model: "ResNet-20", w: 8, a: 8, batch: 1},
	}
	for _, m := range []string{"MNIST", "LeNet", "ResNet-20"} {
		for _, b := range []int{4, 16} {
			rows = append(rows, row{model: m, w: 7, a: 7, batch: b})
		}
	}
	var out strings.Builder
	for _, r := range rows {
		qn, err := SpecModel(r.model, r.w, r.a)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := CompileWithOptions(qn, core.FullParams(), Options{BatchSize: r.batch})
		if err != nil {
			t.Fatalf("%s w%da%d batch %d: %v", r.model, r.w, r.a, r.batch, err)
		}
		fmt.Fprintf(&out, "%s w%da%d batch %d: %d steps\n", r.model, r.w, r.a, r.batch, len(tr.Steps))
		cats := tr.TotalsByCategory()
		for _, c := range []Category{CatLinear, CatActivation, CatPooling, CatSoftmax, CatConvert} {
			fmt.Fprintf(&out, "  %-10s %+v\n", c, cats[c])
		}
	}
	path := filepath.Join("testdata", "trace_totals.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("trace totals moved; got:\n%s", got)
	}
}
