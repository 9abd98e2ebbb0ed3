package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"athena/internal/core"
	"athena/internal/serve/client"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are what a user of the system sees; the untraced pass
// reports exactly these. Their bounds live in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"latency_ms", "ms", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics are what the traced pass reports, named
// <module>.<metric>. The *_us and *_ms probes of ring, bfv, coeffenc,
// lwe, pack and fbs are the time of one call on one processor
// (GOMAXPROCS 1), so that they add up; core.evaluate_ms and the serve,
// store and cluster times are taken at the host's GOMAXPROCS. Counts
// (core.ops.*, serve.sessions.*, cluster.*, client.*) are per operation
// of the traced stretch; fbs.cmults/smults/hadds are per FBS call. A
// metric that does not apply to a workload is reported as 0.
var perLayerMetrics = []metricDef{
	{"ring.ntt_fwd_us", "us", "lower"},
	{"ring.ntt_inv_us", "us", "lower"},
	{"bfv.pmult_us", "us", "lower"},
	{"bfv.cmult_us", "us", "lower"},
	{"bfv.keyswitch_us", "us", "lower"},
	{"bfv.moddown_us", "us", "lower"},
	{"coeffenc.encode_us", "us", "lower"},
	{"lwe.extract_us", "us", "lower"},
	{"lwe.keyswitch_us", "us", "lower"},
	{"pack.pack_ms", "ms", "lower"},
	{"pack.s2c_ms", "ms", "lower"},
	{"fbs.eval_ms", "ms", "lower"},
	{"fbs.cmults", "count", "lower"},
	{"fbs.smults", "count", "lower"},
	{"fbs.hadds", "count", "lower"},
	{"fbs.share", "ratio", "lower"},
	{"core.ops.pmult", "count", "lower"},
	{"core.ops.cmult", "count", "lower"},
	{"core.ops.smult", "count", "lower"},
	{"core.ops.hadd", "count", "lower"},
	{"core.ops.keyswitches", "count", "lower"},
	{"core.ops.extractions", "count", "lower"},
	{"core.ops.packs", "count", "lower"},
	{"core.ops.s2c", "count", "lower"},
	{"core.ops.fbs_calls", "count", "lower"},
	{"core.encrypt_ms", "ms", "lower"},
	{"core.evaluate_ms", "ms", "lower"},
	{"core.evaluate_p1_ms", "ms", "lower"},
	{"core.decrypt_ms", "ms", "lower"},
	{"core.glue_ms", "ms", "lower"},
	{"core.par_speedup", "ratio", "higher"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.eval_ms_per_batch", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.wire_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.sessions.cold_loads", "count", "lower"},
	{"serve.sessions.evictions", "count", "lower"},
	{"serve.sessions.hot_hits", "count", "higher"},
	{"store.put_ms", "ms", "lower"},
	{"store.coldload_ms", "ms", "lower"},
	{"cluster.relay_ms", "ms", "lower"},
	{"cluster.redirects", "count", "lower"},
	{"client.retries", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// ledgerTerms are the steps of one evaluation the probes can price:
// which counter says how often the step ran, and which probe says what
// one run costs (scaled to milliseconds).
var ledgerTerms = []struct {
	step, counter, probe string
	toMS                 float64
}{
	{"fbs (LUT evaluation)", "core.ops.fbs_calls", "fbs.eval_ms", 1},
	{"pack (LWE -> slots)", "core.ops.packs", "pack.pack_ms", 1},
	{"s2c (slots -> coeffs)", "core.ops.s2c", "pack.s2c_ms", 1},
	{"bfv moddown (FBS -> post level)", "core.ops.packs", "bfv.moddown_us", 1e-3},
	{"bfv pmult (conv accumulate)", "core.ops.pmult", "bfv.pmult_us", 1e-3},
	{"coeffenc kernel encode", "core.ops.pmult", "coeffenc.kernel_us", 1e-3},
	{"lwe extract", "core.ops.extractions", "lwe.extract_us", 1e-3},
	{"lwe keyswitch + modswitch", "core.ops.keyswitches", "lwe.keyswitch_us", 1e-3},
}

// tracedPass measures the per-layer metrics of one workload into rec:
// an untraced reference stretch, a stretch with the span recorder on,
// the three-phase API on a local engine, and — on one processor, where
// times add up — the same evaluation and the isolated layer probes that
// the ledger prices it with. The whole pass is sized to take about
// o.seconds.
func tracedPass(rec *runRecord, p *plan, r *runner, o options, probeDir string) error {
	scale := func(share float64) time.Duration { return time.Duration(o.seconds * share * float64(time.Second)) }
	minTraced, minLocal, minProbe := 2, 3, 3
	if o.smoke {
		minTraced, minLocal, minProbe = 1, 1, 1
	}
	budget := scale(0.008)

	ref := r.measure(scale(0.2), 1, nil)
	rec.account("reference", &ref)
	recd := newRecorder()
	tr := r.measure(scale(0.4), minTraced, recd)
	rec.account("traced", &tr)
	rec.Ops = tr.succeeded()
	rec.spans = recd.snapshot()
	if ref.succeeded() == 0 || tr.succeeded() == 0 {
		return fmt.Errorf("%s: no operation succeeded in the traced pass: %w", rec.Workload, errors.Join(ref.firstErr, tr.firstErr))
	}

	m := map[string]float64{}
	m["go.gc_cycles"], m["go.gc_pause_ms"] = tr.gcCycles, tr.gcPauseMS
	m["trace.overhead"] = median(tr.lat)/median(ref.lat) - 1
	// Counters over the traced stretch, per operation.
	for k, v := range tr.counters {
		m[k] = v / float64(tr.succeeded())
	}

	// The three-phase API on one caller's engine: the workload's own for
	// the single-caller workloads, a separate one for the served ones.
	local, _ := r.inst.(*localInstance)
	localSpans := rec.spans
	if local == nil {
		var err error
		if local, err = newLocal(p); err != nil {
			return err
		}
		lrec := newRecorder()
		lw := (&runner{inst: local}).measure(scale(0.03), minLocal, lrec)
		rec.account("local-three-phase", &lw)
		localSpans = lrec.snapshot()
	}
	m["core.encrypt_ms"] = median(durationsMS(localSpans, "core.encrypt"))
	m["core.evaluate_ms"] = median(durationsMS(localSpans, "core.evaluate"))
	m["core.decrypt_ms"] = median(durationsMS(localSpans, "core.decrypt"))

	// What the ledger accounts for: one single-image evaluation, or on
	// serve_batch16 one batch as the server formed them.
	call := ledgerCall{name: "evaluate (one image)", counts: localCounts(localSpans)}
	batches := tr.counters["serve.batches"]
	if batches > 0 {
		m["serve.mean_batch"] = tr.counters["images"] / batches
		m["serve.eval_ms_per_batch"] = tr.counters["serve.eval_ms"] / batches
		m["serve.rejected"] = tr.counters["serve.rejected"]
	}
	batchN := int(math.Round(m["serve.mean_batch"]))
	if _, ok := r.inst.(*servedInstance); ok {
		call = ledgerCall{name: fmt.Sprintf("evaluate (one batch of %d)", batchN), counts: map[string]float64{}}
		for k, v := range tr.counters {
			call.counts[k] = v / batches
		}
	}

	// On one processor a step's time is the work it does and the steps
	// of an evaluation add up to it; on several, fan-out inside and
	// across steps overlaps them and Σ count × probe exceeds the whole.
	nproc := runtime.GOMAXPROCS(1)
	fc, err := func() (fbsCounts, error) {
		defer runtime.GOMAXPROCS(nproc)
		prec := newRecorder()
		pw := (&runner{inst: local}).measure(scale(0.05), 1, prec)
		rec.account("gomaxprocs-1", &pw)
		m["core.evaluate_p1_ms"] = median(durationsMS(prec.snapshot(), "core.evaluate"))
		call.ms = m["core.evaluate_p1_ms"]
		if batches > 0 && batchN > 1 {
			var err error
			if call.ms, err = directBatchMS(local, p, batchN, budget, minProbe); err != nil {
				return fbsCounts{}, err
			}
		}
		kit, err := newProbeKit(p.Params)
		if err != nil {
			return fbsCounts{}, err
		}
		probes, fc, err := kit.layerProbes(p.Net, p.Inputs[0], budget, minProbe)
		for k, v := range probes {
			m[k] = v
		}
		return fc, err
	}()
	if err != nil {
		return fmt.Errorf("%s: layer probes: %w", rec.Workload, err)
	}
	m["fbs.cmults"], m["fbs.smults"], m["fbs.hadds"] = float64(fc.CMults), float64(fc.SMults), float64(fc.HAdds)
	if m["core.evaluate_ms"] > 0 {
		m["core.par_speedup"] = m["core.evaluate_p1_ms"] / m["core.evaluate_ms"]
	}

	// Served workloads: what the batcher, the wire and the store add.
	var servedNote string
	if batches > 0 {
		if m["serve.wire_ms"], err = wireProbe(local.eng, p.Net, p.Inputs[0], budget, minProbe); err != nil {
			return err
		}
	}
	switch inst := r.inst.(type) {
	case *servedInstance:
		direct, err := directBatchMS(local, p, batchN, budget, minProbe)
		if err != nil {
			return err
		}
		wallPerBatch := tr.elapsed.Seconds() * 1e3 / batches
		m["serve.overhead_ms"] = wallPerBatch - direct
		servedNote = fmt.Sprintf("served wall per batch %.2f ms − direct EvaluateEncryptedBatch(%d) %.2f ms = serve.overhead_ms %.2f (server-side evaluate %.2f ms per batch)",
			wallPerBatch, batchN, direct, m["serve.overhead_ms"], m["serve.eval_ms_per_batch"])
	case *routedInstance:
		m["store.put_ms"] = median(durationsMS(rec.spans, "client.upload"))
		if m["store.coldload_ms"], err = coldLoadProbe(local.eng, p.Params, probeDir, budget, minProbe); err != nil {
			return err
		}
		if m["cluster.relay_ms"], err = inst.relayProbe(scale(0.04), minProbe); err != nil {
			return err
		}
		servedNote = fmt.Sprintf("median op %.1f ms = dial %.1f + attach %.1f (store.coldload_ms probe %.1f) or upload %.1f (store.put_ms) + round trip %.1f; server-side evaluate %.1f ms per op",
			median(tr.lat), median(durationsMS(rec.spans, "client.dial")), median(durationsMS(rec.spans, "client.attach")), m["store.coldload_ms"],
			m["store.put_ms"], median(durationsMS(rec.spans, "client.roundtrip")), m["serve.eval_ms_per_batch"])
	}

	// The ledger: Σ count × probe against the measured evaluation.
	priced := func(counts map[string]float64, line func(step string, count, probeMS, cost float64)) (sum float64) {
		for _, t := range ledgerTerms {
			cost := counts[t.counter] * m[t.probe] * t.toMS
			sum += cost
			if line != nil {
				line(t.step, counts[t.counter], m[t.probe]*t.toMS, cost)
			}
		}
		return sum
	}
	rec.ledger = append(rec.ledger, fmt.Sprintf("%-34s %10s %12s %12s", "step of "+call.name+", GOMAXPROCS 1", "count", "probe ms", "count×probe"))
	explained := priced(call.counts, func(step string, count, probeMS, cost float64) {
		rec.ledger = append(rec.ledger, fmt.Sprintf("%-34s %10.1f %12.4f %12.2f", step, count, probeMS, cost))
	})
	fbsMS := call.counts["core.ops.fbs_calls"] * m["fbs.eval_ms"]
	if call.ms > 0 {
		m["fbs.share"] = fbsMS / call.ms
	}
	// core.glue_ms is per single-image evaluation on every workload.
	m["core.glue_ms"] = m["core.evaluate_p1_ms"] - priced(localCounts(localSpans), nil)
	cmultMS := float64(fc.CMults) * m["bfv.cmult_us"] / 1e3
	rec.ledger = append(rec.ledger,
		fmt.Sprintf("%-34s %10s %12s %12.2f", "Σ count×probe", "", "", explained),
		fmt.Sprintf("%-34s %10s %12s %12.2f", "measured "+call.name, "", "", call.ms),
		fmt.Sprintf("%-34s %10s %12s %12.2f  (glue, allocation and steps no probe prices)", "residual", "", "", call.ms-explained),
		fmt.Sprintf("fbs.share = %.1f calls × %.2f ms / %.2f ms = %.3f", call.counts["core.ops.fbs_calls"], m["fbs.eval_ms"], call.ms, m["fbs.share"]),
		fmt.Sprintf("inside one FBS: %d CMult × %.1f us = %.2f ms of %.2f ms; the other %.2f ms are %d SMult + %d HAdd baby-step sums",
			fc.CMults, m["bfv.cmult_us"], cmultMS, m["fbs.eval_ms"], m["fbs.eval_ms"]-cmultMS, fc.SMults, fc.HAdds),
		fmt.Sprintf("one-image evaluate at GOMAXPROCS 1: %.2f ms; at %d: %.2f ms; core.par_speedup %.2f; core.glue_ms %.2f",
			m["core.evaluate_p1_ms"], nproc, m["core.evaluate_ms"], m["core.par_speedup"], m["core.glue_ms"]),
		fmt.Sprintf("tracing overhead: traced median latency %.3f ms vs untraced %.3f ms = %+.2f %%", median(tr.lat), median(ref.lat), 100*m["trace.overhead"]))
	if servedNote != "" {
		rec.ledger = append(rec.ledger, servedNote)
	}

	for _, d := range perLayerMetrics {
		rec.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return nil
}

// ledgerCall is the evaluation the ledger accounts for: its measured
// time on one processor and how often each step ran inside it.
type ledgerCall struct {
	name   string
	ms     float64
	counts map[string]float64
}

// localCounts returns the operation counts of one single-image
// evaluation: the counter deltas on its span.
func localCounts(spans []span) map[string]float64 {
	for _, s := range spans {
		if s.Name == "core.evaluate" && s.Counts != nil {
			return s.Counts
		}
	}
	return map[string]float64{}
}

// directBatchMS times EvaluateEncryptedBatch on n inputs with no server
// around it: what the batch costs once it is formed.
func directBatchMS(local *localInstance, p *plan, n int, budget time.Duration, minCalls int) (float64, error) {
	n = max(n, 1)
	ins := make([]*core.EncryptedInput, n)
	for i := range ins {
		in, err := local.eng.EncryptInput(p.Net, p.Inputs[i%len(p.Inputs)])
		if err != nil {
			return 0, err
		}
		ins[i] = in
	}
	d, err := timeCalls(budget, minCalls, func() error {
		_, err := local.eng.EvaluateEncryptedBatch(p.Net, ins)
		return err
	})
	return float64(d) / 1e6, err
}

// relayProbe sends the same request through a router and directly to
// the node that owns the session, over connections that are already
// attached, and returns the difference of the fastest round trips: what
// the relay adds. The minimum, not the median, because a round trip is
// ~55 ms of batching wait and evaluation whose scatter is ten times the
// relay's cost.
func (r *routedInstance) relayProbe(budget time.Duration, minCalls int) (float64, error) {
	s := r.sessions[0]
	owner, ok := r.members.Owner(s.id)
	if !ok {
		return 0, fmt.Errorf("no owner for session %s", s.id)
	}
	fastest := func(addr string) (float64, error) {
		c, err := client.Dial(addr, s.eng, client.Options{})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := c.Attach(s.id); err != nil {
			return 0, err
		}
		samples, err := sampleCalls(budget, minCalls, func() error {
			_, err := c.InferEncrypted(r.p.Net, s.enc[0], 0)
			return err
		})
		if err != nil {
			return 0, err
		}
		return slices.Min(samples), nil
	}
	direct, err := fastest(owner.Addr)
	if err != nil {
		return 0, err
	}
	var routed float64
	err = r.withRouter(func(addr string) (err error) {
		routed, err = fastest(addr)
		return err
	})
	return (routed - direct) / 1e6, err
}
