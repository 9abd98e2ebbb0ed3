package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// Deviations from the median 3 are 2,1,0,1,97: their median is 1.
	if got := mad([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
}

// The quartile rule must be Python's statistics.quantiles(xs, n=4),
// because the acceptance spread is computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25−2.75)/5.5 = 1", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, _, ok := tailPercentile(ramp(39)); ok {
		t.Error("39 samples leave 9 beyond p75: no tail should be reported")
	}
	cases := []struct {
		n    int
		pct  float64
		want float64
	}{
		{40, 75, 29},         // 10 beyond p75
		{150, 90, 134},       // 15 beyond p90; p95 would leave 7
		{200, 95, 189},       // exactly 10 beyond p95
		{1000, 99, 989},      // exactly 10 beyond p99
		{20000, 99.9, 19979}, // 20 beyond p99.9
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(ramp(c.n))
		if !ok || pct != c.pct || v != c.want {
			t.Errorf("n=%d: tail = p%v %v (ok=%v), want p%v %v", c.n, pct, v, ok, c.pct, c.want)
		}
		if beyond := c.n - 1 - int(v); beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

// A span's self time is its duration minus what its children cover.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if tot := spanTotals(spans); len(tot) != 5 || tot[0].Name != "op" || tot[0].Count != 1 || !near(tot[0].SelfMS, 50e-6) {
		t.Errorf("spanTotals = %+v", tot)
	}
	if got := durationsMS(spans, "b"); len(got) != 1 || !near(got[0], 30e-6) {
		t.Errorf("durationsMS(b) = %v", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id, nil)
	if id != -1 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded something")
	}
	r = newRecorder()
	root := r.begin("op", -1, 7)
	kid := r.begin("k", root, 7)
	time.Sleep(time.Millisecond)
	r.end(kid, map[string]float64{"n": 1})
	r.end(root, nil)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Op != 7 || s[1].End <= s[1].Start || s[0].End < s[1].End || s[1].Counts["n"] != 1 {
		t.Errorf("unexpected spans %+v", s)
	}
}

// The same seed gives the same operation sequence and inputs; another
// seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	for _, d := range workloadDefs {
		a, err := makePlan(d.Name, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(d.Name, 11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(d.Name, 12)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 11 gave digests %s and %s", d.Name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", d.Name, a.digest())
		}
		if len(a.Inputs) != inputPool || len(a.Want) != inputPool || len(a.Ops) != opSequenceLen {
			t.Errorf("%s: plan has %d inputs, %d oracle rows, %d ops", d.Name, len(a.Inputs), len(a.Want), len(a.Ops))
		}
	}
	p, err := makePlan("routed_churn", 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, s := range p.KeySeeds {
		seen[s] = true
	}
	for i, op := range p.Ops {
		if want := i%uploadEvery == uploadEvery-1; (op.Kind == opUpload) != want {
			t.Fatalf("op %d: kind %d, upload expected %v", i, op.Kind, want)
		}
		if op.Kind == opUpload {
			if seen[op.KeySeed] {
				t.Fatalf("op %d reuses key seed %d: the upload would not reach the WAL", i, op.KeySeed)
			}
			seen[op.KeySeed] = true
		}
	}
	if _, err := makePlan("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The oracle of single_t257 must be worth checking against: with the
// tracked infer_e2e multipliers every logit is 0.
func TestTinyNetLogitsAreNotTrivial(t *testing.T) {
	p, err := makePlan("single_t257", 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int64]bool{}
	for _, row := range p.Want {
		for _, v := range row {
			distinct[v] = true
		}
	}
	if len(distinct) < 4 {
		t.Errorf("oracle logits take only %d distinct values", len(distinct))
	}
}

func TestCheckLogits(t *testing.T) {
	if m, err := checkLogits([]int64{1, -2, 3}, []int64{1, 0, 2}, 2); err != nil || m != 2 {
		t.Errorf("within limit: max %d err %v", m, err)
	}
	if _, err := checkLogits([]int64{1, -3, 3}, []int64{1, 0, 2}, 2); err == nil {
		t.Error("beyond the limit accepted")
	}
	if _, err := checkLogits([]int64{1}, []int64{1, 2}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(c float64) []float64 {
		return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005, c}
	}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	cases := []struct {
		metric, better string
		a, b           []float64
		want           string
	}{
		{"latency_ms", "lower", steady(100), steady(101), verdictUnchanged},
		{"latency_ms", "lower", steady(100), steady(120), verdictRegressed},
		{"latency_ms", "lower", steady(100), steady(80), verdictImproved},
		{"throughput_ops", "higher", steady(100), steady(80), verdictRegressed},
		{"throughput_ops", "higher", steady(100), steady(120), verdictImproved},
		{"latency_ms", "lower", steady(100), noisy, verdictUnresolved},
		{"latency_ms", "lower", noisy, steady(100), verdictUnresolved},
		{"latency_ms", "lower", steady(100)[:2], steady(100), verdictUnresolved}, // too few runs
		{"setup_s", "lower", noisy, steady(100), verdictUnchanged},               // judged on medians alone
		{"setup_s", "lower", steady(100), steady(130), verdictRegressed},
	}
	for i, c := range cases {
		got := judge(c.metric, c.better, 0.10, c.a, c.b)
		if got.Verdict != c.want {
			t.Errorf("case %d (%s): verdict %s, want %s (change %+.3f, spreads %.3f %.3f)",
				i, c.metric, got.Verdict, c.want, got.Change, got.SpreadA, got.SpreadB)
		}
	}

	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(lat float64) *resultFile {
		rf := &resultFile{}
		for _, v := range steady(lat) {
			rf.Runs = append(rf.Runs, &runRecord{Workload: "single_t257", Metrics: map[string]metricValue{"latency_ms": {Value: v, Unit: "ms"}}})
		}
		// A traced run must not be mixed into the end-to-end values.
		rf.Runs = append(rf.Runs, &runRecord{Workload: "single_t257", Trace: true, Metrics: map[string]metricValue{"latency_ms": {Value: 1e9}}})
		return rf
	}
	rows := compareResults(bf, mk(100), mk(150))
	if len(rows) != len(bf.Workloads)*len(bf.EndToEnd) {
		t.Fatalf("%d rows, want one per metric × workload = %d", len(rows), len(bf.Workloads)*len(bf.EndToEnd))
	}
	for _, r := range rows {
		want := verdictUnresolved // no runs recorded
		if r.Workload == "single_t257" && r.Metric == "latency_ms" {
			want = verdictRegressed
		}
		if r.Verdict != want {
			t.Errorf("%s %s: verdict %s, want %s", r.Workload, r.Metric, r.Verdict, want)
		}
	}
	if s := formatComparison(rows); !regexp.MustCompile(`regressed: 1`).MatchString(s) {
		t.Errorf("summary line missing from:\n%s", s)
	}
}

// BENCHMARK.json must describe the program: same workloads and reasons,
// same metrics and units, and the schema limits the driver enforces.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range bf.Workloads {
		check(w.Name, "")
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) || len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		if d := endToEndMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v does not match %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		if d := perLayerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v does not match %+v", i, m, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// -smoke: every workload end to end at 1–2 operations in under 15 s,
// and the traced pass of the cheap ones, all correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs encrypted inferences")
	}
	o := options{seed: 1, smoke: true, workdir: t.TempDir()}
	start := time.Now()
	for _, d := range workloadDefs {
		rec, err := runWorkload(d.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.correct() || rec.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, outside %d: %s", d.Name, rec.Attempted, rec.Failed, rec.Outside, rec.FirstError)
		}
		for _, m := range endToEndMetrics {
			if v, ok := rec.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v", d.Name, m.Name, v)
			}
		}
		if len(rec.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", d.Name, len(rec.Metrics), len(endToEndMetrics))
		}
	}
	if el := time.Since(start); el > 15*time.Second && !raceEnabled {
		t.Errorf("smoke pass took %v, want under 15 s", el)
	}

	o.trace = true
	for _, name := range []string{"single_t257", "serve_batch16", "routed_churn"} {
		rec, err := runWorkload(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.correct() {
			t.Errorf("%s traced: failed %d, outside %d: %s", name, rec.Failed, rec.Outside, rec.FirstError)
		}
		if len(rec.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s traced: %d metrics, want exactly the %d per-layer ones", name, len(rec.Metrics), len(perLayerMetrics))
		}
		for _, must := range []string{"fbs.eval_ms", "bfv.cmult_us", "core.evaluate_ms", "core.ops.fbs_calls", "ring.ntt_fwd_us"} {
			if rec.Metrics[must].Value <= 0 {
				t.Errorf("%s traced: %s = %v", name, must, rec.Metrics[must].Value)
			}
		}
		if len(rec.spans) == 0 || len(rec.ledger) == 0 {
			t.Errorf("%s traced: %d spans, %d ledger lines", name, len(rec.spans), len(rec.ledger))
		}
		if name == "routed_churn" && (rec.Metrics["store.coldload_ms"].Value <= 0 || rec.Metrics["cluster.relay_ms"].Value == 0) {
			t.Errorf("routed_churn traced: store/cluster probes missing: %+v %+v", rec.Metrics["store.coldload_ms"], rec.Metrics["cluster.relay_ms"])
		}
		if name == "serve_batch16" && rec.Metrics["serve.mean_batch"].Value < 1 {
			t.Errorf("serve_batch16 traced: mean batch %v", rec.Metrics["serve.mean_batch"].Value)
		}
	}
}
