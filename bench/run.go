package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool   // 1–2 operations per phase, one set-up, one probe sample
	workdir string // where data directories are made (and removed)
}

// metricValue is one reported metric. Samples is present for metrics
// that are the median of a sample set taken inside the run.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// phaseCount accounts for the operations of one phase of a run.
type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// runRecord is the complete result of one run of one workload.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Env        envInfo                `json:"env"`
	PlanDigest string                 `json:"plan_digest"`
	Drivers    int                    `json:"drivers"`
	Ops        int                    `json:"ops"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	Outside    int                    `json:"outside_tolerance"` // succeeded, but beyond Tolerance
	MaxErr     int64                  `json:"max_abs_logit_err"`
	ErrHist    [errHistLen]int        `json:"logit_err_hist"` // operations by their largest |logit − oracle|; last bucket is "or more"
	Tolerance  int64                  `json:"tolerance"`
	HardLimit  int64                  `json:"hard_limit"`
	Phases     []phaseCount           `json:"phases"`
	Metrics    map[string]metricValue `json:"metrics"`

	ledger []string
	spans  []span
}

const errHistLen = 8

// window is what one measured stretch of operations yields.
type window struct {
	errHist   [errHistLen]int
	lat       []float64 // ms, successful operations only
	attempted int
	failed    int
	maxErr    int64
	firstErr  error
	elapsed   time.Duration // wall time less excluded preparation
	mallocs   float64
	bytes     float64
	gcCycles  float64
	gcPauseMS float64
	counters  map[string]float64 // layer counter deltas over the window
}

func (w *window) succeeded() int { return w.attempted - w.failed }

func (w *window) phase(name string) phaseCount {
	return phaseCount{Name: name, Attempted: w.attempted, Succeeded: w.succeeded(), Failed: w.failed}
}

// runner drives one instance. Operation numbers keep counting across
// windows, so a later window continues the workload's sequence instead
// of replaying its start (routed_churn must never upload a key twice).
type runner struct {
	inst instance
	next atomic.Int64
}

// measure runs operations closed-loop on the instance's drivers for
// dur, and for at least minOps operations: a driver starts its next
// operation as soon as its previous one completes, and no operation is
// started once dur has passed.
func (r *runner) measure(dur time.Duration, minOps int, rec *recorder) window {
	runtime.GC()
	before := r.inst.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var (
		mu       sync.Mutex
		w        window
		excluded time.Duration
		exMalloc uint64
		exBytes  uint64
		wg       sync.WaitGroup
	)
	base := r.next.Load()
	start := time.Now()
	for d := 0; d < r.inst.drivers(); d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for {
				if r.next.Load()-base >= int64(minOps) && time.Since(start) >= dur {
					return
				}
				op := int(r.next.Add(1) - 1)
				res := r.inst.do(d, op, rec)
				mu.Lock()
				w.attempted++
				if res.Err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("operation %d: %w", op, res.Err)
					}
				} else {
					w.lat = append(w.lat, float64(res.Latency)/1e6)
				}
				w.maxErr = max(w.maxErr, res.MaxErr)
				if res.Err == nil {
					w.errHist[min(res.MaxErr, errHistLen-1)]++
				}
				excluded += res.Excluded
				exMalloc += res.ExcludedMalloc
				exBytes += res.ExcludedBytes
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	w.elapsed = wall - excluded
	w.mallocs = float64(m1.Mallocs - m0.Mallocs - exMalloc)
	w.bytes = float64(m1.TotalAlloc - m0.TotalAlloc - exBytes)
	w.gcCycles = float64(m1.NumGC - m0.NumGC)
	w.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	w.counters = r.inst.counters()
	for k, v := range before {
		w.counters[k] -= v
	}
	return w
}

// setUpRepeats decides how often set-up is repeated so that setup_s is
// a median: at least 3 times, up to 15 for set-ups that take a few
// tens of milliseconds, about 1.5 s in all.
func setUpRepeats(first time.Duration, smoke bool) int {
	if smoke {
		return 1
	}
	n := int(math.Ceil(1.5 / first.Seconds()))
	return min(max(n, 3), 15)
}

// runWorkload prepares, sets up, measures and tears down one workload.
// With o.trace the measured pass is the traced one and the metrics are
// the per-layer ones; otherwise they are the end-to-end ones.
func runWorkload(name string, o options) (rec *runRecord, err error) {
	p, err := makePlan(name, o.seed)
	if err != nil {
		return nil, err
	}
	rec = &runRecord{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: environment(), PlanDigest: p.digest(), Tolerance: p.Tol, HardLimit: p.Hard, Metrics: map[string]metricValue{}}

	// Set-up, several times over; the last instance is the one measured.
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	var (
		inst   instance
		setups []float64
	)
	for i, n := 0, 1; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: tearing down set-up %d: %w", name, i, err)
			}
		}
		t0 := time.Now()
		inst, err = setUp(name, p, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		if i == 0 {
			n = setUpRepeats(d, o.smoke)
		}
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: tear-down: %w", name, cerr)
		}
	}()
	if err = inst.stage(); err != nil {
		return nil, fmt.Errorf("%s: staging inputs: %w", name, err)
	}
	rec.Drivers = inst.drivers()
	r := &runner{inst: inst}

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		err = tracedPass(rec, p, r, o, dir+"-probe")
		return rec, err
	}

	minOps := 2
	if o.smoke {
		minOps = 1
	}
	w := r.measure(dur, minOps, nil)
	rec.account("measure", &w)
	rec.Ops = w.succeeded()
	if w.succeeded() == 0 {
		return rec, fmt.Errorf("%s: no operation succeeded: %w", name, w.firstErr)
	}
	ops := float64(w.succeeded())
	lat := summarize(w.lat)
	set := summarize(setups)
	rec.Metrics["latency_ms"] = metricValue{lat.Median, "ms", &lat}
	rec.Metrics["throughput_ops"] = metricValue{ops / w.elapsed.Seconds(), "1/s", nil}
	rec.Metrics["allocs_per_op"] = metricValue{w.mallocs / ops, "count", nil}
	rec.Metrics["alloc_mb_per_op"] = metricValue{w.bytes / ops / 1e6, "MB", nil}
	rec.Metrics["setup_s"] = metricValue{set.Median, "s", &set}
	return rec, nil
}

// correct is the run's verdict: no operation failed, and no more than
// outsideAllowed of them left the stated tolerance.
func (rec *runRecord) correct() bool {
	return rec.Failed == 0 && float64(rec.Outside) <= outsideAllowed*float64(rec.Attempted)
}

// account adds one phase's operations to the run's totals.
func (rec *runRecord) account(phase string, w *window) {
	rec.Phases = append(rec.Phases, w.phase(phase))
	rec.Attempted += w.attempted
	rec.Failed += w.failed
	rec.MaxErr = max(rec.MaxErr, w.maxErr)
	for i, n := range w.errHist {
		rec.ErrHist[i] += n
		if int64(i) > rec.Tolerance {
			rec.Outside += n
		}
	}
	if rec.FirstError == "" && w.firstErr != nil {
		rec.FirstError = w.firstErr.Error()
	}
}
