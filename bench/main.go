// Command bench is the repository's benchmark: four workloads, each
// checked against the plaintext-quantized oracle, measured end to end
// with tracing off and layer by layer in a separate traced pass. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	bench                                   # every workload, end to end
//	bench --trace 1                         # every workload, per-layer ledger
//	bench --workload single_t257 --seed 3 --seconds 20 --trace 0
//	bench -out a.json ...                   # append the run to a result file
//	bench -compare a.json b.json            # judge b against a by the bounds
//	bench -smoke                            # 1–2 operations per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envInfo is the reproducibility envelope stored with every run.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

func environment() envInfo {
	e := envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or,
// when the program is run from its own directory, one level up.
func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(blob, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// resultFile is what -out accumulates: one record per run.
type resultFile struct {
	Runs []*runRecord `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResult adds rec to the result file at path, creating it if
// needed, so that a set of runs made by separate processes (as the
// driver makes them) ends up in one file.
func appendResult(path string, rec *runRecord) error {
	rf, err := readResultFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		rf = &resultFile{}
	}
	rf.Runs = append(rf.Runs, rec)
	blob, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printRecord prints one run for a reader: every metric by name with
// its unit and, where the run sampled it, count, median, minimum, MAD,
// quartiles and tail.
func printRecord(rec *runRecord) {
	pass := "end to end, tracing off"
	if rec.Trace {
		pass = "traced pass, per layer"
	}
	fmt.Printf("== %s (%s) seed=%d seconds=%g drivers=%d plan=%s\n", rec.Workload, pass, rec.Seed, rec.Seconds, rec.Drivers, rec.PlanDigest)
	fmt.Printf("   host: %d CPU, GOMAXPROCS %d, %s %s/%s, commit %s\n", rec.Env.NumCPU, rec.Env.GOMAXPROCS,
		rec.Env.GoVersion, rec.Env.GOOS, rec.Env.GOARCH, rec.Env.Commit)
	for _, ph := range rec.Phases {
		fmt.Printf("   phase %-18s attempted %5d  succeeded %5d  failed %d\n", ph.Name, ph.Attempted, ph.Succeeded, ph.Failed)
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Printf("   fail_share %.4f (%d of %d errored, were refused or left the hard limit ±%d of the oracle)\n", share, rec.Failed, rec.Attempted, rec.HardLimit)
	fmt.Printf("   tolerance ±%d: %d operations outside it (allowed %.0f%%); largest |logit − oracle| %d; operations by largest error 0..%d+: %v; correct=%v\n",
		rec.Tolerance, rec.Outside, 100*outsideAllowed, rec.MaxErr, errHistLen-1, rec.ErrHist, rec.correct())
	if rec.FirstError != "" {
		fmt.Printf("   first failure: %s\n", rec.FirstError)
	}
	if rec.Drivers > 1 {
		fmt.Println("   allocation metrics are process-wide: they include the in-process load generator and server")
	}
	defs := endToEndMetrics
	if rec.Trace {
		defs = perLayerMetrics
	}
	fmt.Printf("   %-28s %14s %-6s %6s %12s %12s %12s %12s %12s\n", "metric", "value", "unit", "n", "min", "mad", "q1", "q3", "tail")
	for _, d := range defs {
		mv, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-28s %14.4f %-6s", d.Name, mv.Value, mv.Unit)
		if s := mv.Samples; s != nil {
			line += fmt.Sprintf(" %6d %12.4f %12.4f %12.4f %12.4f", s.N, s.Min, s.MAD, s.Q1, s.Q3)
			if s.TailPct > 0 {
				line += fmt.Sprintf(" %12s", fmt.Sprintf("p%g=%.4f", s.TailPct, s.Tail))
			} else {
				line += fmt.Sprintf(" %12s", "n/a (<10 beyond)")
			}
		}
		fmt.Println(line)
	}
	if s := rec.Metrics["latency_ms"].Samples; s != nil && s.TailPct > 0 {
		fmt.Printf("   latency_tail_ms %.4f ms at p%g (the highest percentile with ≥ 10 samples beyond it)\n", s.Tail, s.TailPct)
	}
	if len(rec.ledger) > 0 {
		fmt.Println("   ledger:")
		for _, l := range rec.ledger {
			fmt.Println("     " + l)
		}
		fmt.Println("   spans (count, summed duration ms, summed self time ms):")
		for _, t := range spanTotals(rec.spans) {
			fmt.Printf("     %-20s %6d %12.2f %12.2f\n", t.Name, t.Count, t.SumMS, t.SelfMS)
		}
	}
}

// contractLine is the last line the driver reads.
func contractLine(rec *runRecord) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: rec.correct(), Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]mv{}}
	for k, v := range rec.Metrics {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(blob)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed: inputs and operation order derive from it")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics and ledger")
	out := flag.String("out", "", "append each run's record (envelope, samples, metrics) to this JSON file")
	spansOut := flag.String("spans", "", "with --trace 1: write the recorded spans to this JSON file")
	smoke := flag.Bool("smoke", false, "run 1–2 operations per phase instead of measuring for --seconds")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	workdir := flag.String("workdir", ".bench_build", "directory for the servers' data directories (removed after the run)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail("-compare needs two result files")
		}
		bf, err := readBenchmarkFile()
		if err != nil {
			fail("reading the bounds: %v", err)
		}
		a, err := readResultFile(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		b, err := readResultFile(flag.Arg(1))
		if err != nil {
			fail("%v", err)
		}
		rows := compareResults(bf, a, b)
		fmt.Print(formatComparison(rows))
		for _, r := range rows {
			if r.Verdict == verdictRegressed {
				os.Exit(1)
			}
		}
		return
	}

	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 && !*smoke {
		bf, err := readBenchmarkFile()
		if err != nil {
			fail("no --seconds given and no BENCHMARK.json to take run_seconds from: %v", err)
		}
		*seconds = float64(bf.RunSeconds)
	}
	if *smoke {
		*seconds = 0
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, workdir: *workdir}

	spans := map[string][]span{}
	var last *runRecord
	failed := false
	for _, name := range names {
		rec, err := runWorkload(name, o)
		if err != nil {
			fail("%v", err)
		}
		printRecord(rec)
		spans[name] = rec.spans
		if *out != "" {
			if err := appendResult(*out, rec); err != nil {
				fail("writing %s: %v", *out, err)
			}
		}
		failed = failed || !rec.correct()
		last = rec
	}
	if *spansOut != "" && o.trace {
		if err := writeSpans(*spansOut, spans); err != nil {
			fail("writing %s: %v", *spansOut, err)
		}
	}
	if len(names) == 1 {
		fmt.Println(contractLine(last))
	}
	if failed {
		os.Exit(1)
	}
}

// ---- compare mode ----

const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minRunsToJudge is how many runs each side needs before a spread can
// be taken from it.
const minRunsToJudge = 3

// comparison is one row: one end-to-end metric on one workload.
type comparison struct {
	Workload, Metric, Unit string
	NA, NB                 int
	MedianA, MedianB       float64
	SpreadA, SpreadB       float64
	Bound                  float64
	Change                 float64 // (B − A) / A, positive = larger
	Verdict                string
}

// judge applies the benchmark's rule to two sets of values of one
// metric: the run-to-run spread (interquartile distance over median) of
// either side wider than the bound makes the pair unresolved; otherwise
// B is regressed or improved when its median is worse or better than
// A's by more than the bound. setup_s is judged on its medians alone,
// as the driver does.
func judge(metric, better string, bound float64, a, b []float64) comparison {
	c := comparison{Metric: metric, NA: len(a), NB: len(b), MedianA: median(a), MedianB: median(b),
		SpreadA: spread(a), SpreadB: spread(b), Bound: bound}
	if c.MedianA != 0 {
		c.Change = (c.MedianB - c.MedianA) / c.MedianA
	}
	worse := c.Change
	if better == "higher" {
		worse = -c.Change
	}
	switch {
	case len(a) < minRunsToJudge || len(b) < minRunsToJudge:
		c.Verdict = verdictUnresolved
	case metric != "setup_s" && max(c.SpreadA, c.SpreadB) > bound:
		c.Verdict = verdictUnresolved
	case worse > bound:
		c.Verdict = verdictRegressed
	case worse < -bound:
		c.Verdict = verdictImproved
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// valuesOf collects one metric's value from every untraced run of one
// workload in a result file.
func valuesOf(rf *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace {
			if mv, ok := r.Metrics[metric]; ok {
				out = append(out, mv.Value)
			}
		}
	}
	return out
}

// compareResults judges every end-to-end metric × workload pairing of
// BENCHMARK.json, one row each.
func compareResults(bf *benchmarkFile, a, b *resultFile) []comparison {
	var rows []comparison
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			c := judge(m.Name, m.Better, m.Bound, valuesOf(a, w.Name, m.Name), valuesOf(b, w.Name, m.Name))
			c.Workload, c.Unit = w.Name, m.Unit
			rows = append(rows, c)
		}
	}
	return rows
}

func formatComparison(rows []comparison) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-16s %-6s %4s %4s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "nA", "nB", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	tally := map[string]int{}
	for _, c := range rows {
		fmt.Fprintf(&sb, "%-14s %-16s %-6s %4d %4d %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Unit, c.NA, c.NB, c.MedianA, c.MedianB, 100*c.Change, 100*c.SpreadA, 100*c.SpreadB, 100*c.Bound, c.Verdict)
		tally[c.Verdict]++
	}
	keys := make([]string, 0, len(tally))
	for k := range tally {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s: %d  ", k, tally[k])
	}
	sb.WriteString("\n")
	return sb.String()
}
