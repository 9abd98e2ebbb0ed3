package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"athena/internal/cluster"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

// workloadDef names a workload and says why it is in the benchmark.
// BENCHMARK.json repeats name and why; a test keeps the two in step.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"single_t257", "one caller, 3-layer 6x6 CNN at N=128 t=257: every five-step stage at its smallest, so bfv CMult and core glue/allocation carry their largest share"},
	{"single_t12289", "one caller, trained DigitNet14 at N=512 t=12289: the paper-shaped point, FBS is 96% of an evaluation and its 329 nine-limb CMults per call are nearly all of FBS"},
	{"serve_batch16", "in-process server over loopback TCP, 16 requests outstanding: batches fill, so per-image work and the serve reply path set throughput"},
	{"routed_churn", "2 nodes holding 2 of 12 sessions each behind an unbound router, one reconnecting client per op, every 6th uploading keys: store, engine rebuild, bind and relay dominate, FBS does not"},
}

// opResult is what one operation reports back to the measuring loop.
type opResult struct {
	Latency time.Duration // client-observed wall time
	MaxErr  int64         // largest |logit − oracle|
	Err     error         // non-nil: the operation failed or was wrong

	// Work done inside the call that is preparation, not the operation
	// (routed_churn generating a new client's keys). The loop takes it
	// out of the window's time and allocation totals.
	Excluded       time.Duration
	ExcludedMalloc uint64
	ExcludedBytes  uint64
}

// instance is one set-up of a workload, ready to run operations.
type instance interface {
	// stage prepares what set-up time does not include (pre-encrypted
	// inputs). It runs once, before the first do.
	stage() error
	// do runs operation number op on driver goroutine d; rec is nil on
	// the untraced pass.
	do(d, op int, rec *recorder) opResult
	// drivers is how many goroutines call do concurrently.
	drivers() int
	// counters returns the cumulative layer counters.
	counters() map[string]float64
	close() error
}

// setUp builds one instance of workload name. Everything in here is
// what setup_s measures.
func setUp(name string, p *plan, dir string) (instance, error) {
	switch name {
	case "single_t257", "single_t12289":
		return newLocal(p)
	case "serve_batch16":
		return newServed(p, dir)
	case "routed_churn":
		return newRouted(p, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opStatsCounters names the engine's operation counts the way the
// per-layer metrics do.
func opStatsCounters(s core.OpStats) map[string]float64 {
	return map[string]float64{
		"core.ops.pmult": float64(s.PMult), "core.ops.hadd": float64(s.HAdd),
		"core.ops.cmult": float64(s.CMult), "core.ops.smult": float64(s.SMult),
		"core.ops.packs": float64(s.Packs), "core.ops.fbs_calls": float64(s.FBSCalls),
		"core.ops.s2c": float64(s.S2CCalls), "core.ops.extractions": float64(s.Extractions),
		"core.ops.keyswitches": float64(s.KeySwitches),
	}
}

// opCounts is the difference of two OpStats: the counter deltas a span
// carries.
func opCounts(before, after core.OpStats) map[string]float64 {
	d := opStatsCounters(after)
	for k, v := range opStatsCounters(before) {
		d[k] -= v
	}
	return d
}

// ---- single_t257, single_t12289: one caller, the three-phase API ----

type localInstance struct {
	p      *plan
	eng    *core.Engine
	images float64
}

func newLocal(p *plan) (*localInstance, error) {
	eng, err := core.NewEngine(p.Params)
	if err != nil {
		return nil, err
	}
	l := &localInstance{p: p, eng: eng}
	// One warm-up inference: the engine compiles each layer's look-up
	// table on first use, and that is set-up, not steady state.
	if res := l.do(0, 0, nil); res.Err != nil {
		return nil, res.Err
	}
	l.images = 0
	return l, nil
}

func (l *localInstance) stage() error { return nil }
func (l *localInstance) drivers() int { return 1 }
func (l *localInstance) close() error { return nil }

func (l *localInstance) counters() map[string]float64 {
	c := opStatsCounters(l.eng.Stats)
	c["images"] = l.images
	return c
}

func (l *localInstance) do(_, op int, rec *recorder) opResult {
	spec := l.p.Ops[op%len(l.p.Ops)]
	root := rec.begin("op", -1, op)
	defer rec.end(root, nil)

	t0 := time.Now()
	s := rec.begin("core.encrypt", root, op)
	in, err := l.eng.EncryptInput(l.p.Net, l.p.Inputs[spec.Input])
	rec.end(s, nil)
	if err != nil {
		return opResult{Err: err}
	}
	before := l.eng.Stats
	s = rec.begin("core.evaluate", root, op)
	out, err := l.eng.EvaluateEncrypted(l.p.Net, in)
	if rec != nil {
		rec.end(s, opCounts(before, l.eng.Stats))
	}
	if err != nil {
		return opResult{Err: err}
	}
	l.images++
	s = rec.begin("core.decrypt", root, op)
	logits, err := l.eng.DecryptLogits(out)
	rec.end(s, nil)
	lat := time.Since(t0)
	if err != nil {
		return opResult{Err: err}
	}
	maxErr, err := checkLogits(logits, l.p.Want[spec.Input], l.p.Hard)
	return opResult{Latency: lat, MaxErr: maxErr, Err: err}
}

// ---- in-process servers ----

// listener is a loopback listener with the accept loop that serves it;
// wait returns once that loop has ended.
type listener struct {
	addr string
	done chan error
}

func serveOn(serveFn func(net.Listener) error) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), done: make(chan error, 1)}
	//lint:allow goleak the accept loop ends when the owner's Shutdown closes the listener; wait() joins it
	go func() { l.done <- serveFn(ln) }()
	return l, nil
}

func (l *listener) wait() error { return <-l.done }

// serveConfig is the node configuration both served workloads use
// (cmd/athena-serve's batching defaults, durable tier on).
func serveConfig(p *plan, dataDir string, memCap int64) serve.Config {
	return serve.Config{
		Params:      p.Params,
		Models:      map[string]*qnn.QNetwork{p.Net.Name: p.Net},
		MaxBatch:    16,
		MaxWait:     25 * time.Millisecond,
		MaxQueue:    256,
		DataDir:     dataDir,
		MemCapBytes: memCap,
	}
}

// settledMetrics returns a node's metrics once no batch is queued or in
// flight. The batcher records a batch after it has replied, so right
// after the last reply the snapshot could still miss that batch; the
// server offers no event to wait on, so this polls (for at most 2 s).
func settledMetrics(srv *serve.Server) serve.Snapshot {
	for i := 0; ; i++ {
		s := srv.Metrics()
		if (s.QueueDepth == 0 && s.InflightBatches == 0) || i == 2000 {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

func snapshotCounters(snaps ...serve.Snapshot) map[string]float64 {
	c := map[string]float64{}
	for _, s := range snaps {
		// OpStatsSnapshot is OpStats with JSON tags, so it converts.
		for k, v := range opStatsCounters(core.OpStats(s.Ops)) {
			c[k] += v
		}
		c["images"] += float64(s.Images)
		c["serve.batches"] += float64(s.Batches)
		c["serve.eval_ms"] += s.EvalTimeMS
		c["serve.rejected"] += float64(s.Requests.RejectedBusy + s.Requests.RateLimited +
			s.Requests.DeadlineExpired + s.Requests.Failed)
		c["serve.sessions.cold_loads"] += float64(s.Sessions.ColdLoads)
		c["serve.sessions.evictions"] += float64(s.Sessions.Evictions)
		c["serve.sessions.hot_hits"] += float64(s.Sessions.HotHits)
	}
	return c
}

// ---- serve_batch16: one node, nproc connections, 16 outstanding ----

const servedOutstanding = 16

type servedInstance struct {
	p       *plan
	dir     string
	srv     *serve.Server
	ln      *listener
	eng     *core.Engine
	clients []*client.Client
	enc     []*core.EncryptedInput
}

func newServed(p *plan, dir string) (_ *servedInstance, err error) {
	s := &servedInstance{p: p, dir: dir}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.srv, err = serve.NewServer(serveConfig(p, dir, 0)); err != nil {
		return nil, err
	}
	if s.ln, err = serveOn(s.srv.Serve); err != nil {
		return nil, err
	}
	if s.eng, err = core.NewEngine(p.Params); err != nil {
		return nil, err
	}
	var sessID string
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := client.Dial(s.ln.addr, s.eng, client.Options{})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		if i == 0 {
			sessID, err = c.OpenSession()
		} else {
			err = c.Attach(sessID)
		}
		if err != nil {
			return nil, err
		}
	}
	// One warm-up request primes the per-session plan caches.
	in, err := s.eng.EncryptInput(p.Net, p.Inputs[0])
	if err != nil {
		return nil, err
	}
	if _, err = s.clients[0].InferEncrypted(p.Net, in, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// stage pre-encrypts the inputs: the client's encryption is not what
// this workload measures, and it shares one PRNG stream, so it is done
// serially up front.
func (s *servedInstance) stage() error {
	for _, x := range s.p.Inputs {
		in, err := s.eng.EncryptInput(s.p.Net, x)
		if err != nil {
			return err
		}
		s.enc = append(s.enc, in)
	}
	return nil
}

func (s *servedInstance) drivers() int { return servedOutstanding }

func (s *servedInstance) counters() map[string]float64 {
	return snapshotCounters(settledMetrics(s.srv))
}

func (s *servedInstance) do(d, op int, rec *recorder) opResult {
	spec := s.p.Ops[op%len(s.p.Ops)]
	root := rec.begin("op", -1, op)
	defer rec.end(root, nil)

	t0 := time.Now()
	sp := rec.begin("client.roundtrip", root, op)
	out, err := s.clients[d%len(s.clients)].InferEncrypted(s.p.Net, s.enc[spec.Input], 0)
	rec.end(sp, nil)
	lat := time.Since(t0)
	if err != nil {
		return opResult{Err: err}
	}
	sp = rec.begin("core.decrypt", root, op)
	logits, err := s.eng.DecryptLogits(out)
	rec.end(sp, nil)
	if err != nil {
		return opResult{Err: err}
	}
	maxErr, err := checkLogits(logits, s.p.Want[spec.Input], s.p.Hard)
	return opResult{Latency: lat, MaxErr: maxErr, Err: err}
}

func (s *servedInstance) close() error {
	for _, c := range s.clients {
		_ = c.Close() // the connection is only being dropped
	}
	var err error
	if s.srv != nil {
		s.srv.Shutdown()
		if s.ln != nil {
			err = s.ln.wait()
		}
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- routed_churn: router + 2 nodes, reconnecting clients ----

const (
	routedNodes    = 2
	residentPerCap = 2 // sessions a node's memory cap holds
)

// routedSession is one pre-uploaded client: its keys, its session ID,
// and its pre-encrypted inputs.
type routedSession struct {
	eng *core.Engine
	id  string
	enc []*core.EncryptedInput
}

type routedInstance struct {
	p        *plan
	dir      string
	nodes    []*serve.Server
	nodeLns  []*listener
	members  *cluster.Membership
	sessions []*routedSession

	mu        sync.Mutex
	retries   float64
	redirects float64
}

func newRouted(p *plan, dir string) (_ *routedInstance, err error) {
	r := &routedInstance{p: p, dir: dir, members: cluster.NewMembership(0)}
	defer func() {
		if err != nil {
			_ = r.close()
		}
	}()

	// Key generation comes first because the memory cap is sized from
	// the uploaded bundle: room for residentPerCap sessions and a half.
	for _, seed := range p.KeySeeds {
		kp := p.Params
		kp.Seed = seed
		eng, err := core.NewEngine(kp)
		if err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, &routedSession{eng: eng})
	}
	var blob bytes.Buffer
	if err = r.sessions[0].eng.WriteEvalKeys(&blob); err != nil {
		return nil, err
	}
	memCap := int64(blob.Len())*residentPerCap + int64(blob.Len())/2

	for i := 0; i < routedNodes; i++ {
		name := fmt.Sprintf("n%d", i)
		nodeDir := fmt.Sprintf("%s/%s", dir, name)
		if err = os.MkdirAll(nodeDir, 0o755); err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(serveConfig(p, nodeDir, memCap))
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, srv)
		ln, err := serveOn(srv.Serve)
		if err != nil {
			return nil, err
		}
		r.nodeLns = append(r.nodeLns, ln)
		if err = r.members.Join(name, ln.addr, ""); err != nil {
			return nil, err
		}
	}
	doc := r.members.Doc()
	for i, srv := range r.nodes {
		srv.SetSessionOwnership(doc.OwnedFunc(fmt.Sprintf("n%d", i)))
	}

	// Every session is uploaded through the router tier, then one
	// warm-up operation runs: a returning client on the first session.
	in, err := r.sessions[0].eng.EncryptInput(p.Net, p.Inputs[0])
	if err != nil {
		return nil, err
	}
	for _, s := range append(r.sessions, r.sessions[0]) {
		if _, _, _, err = r.returning(s, in, nil, -1, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *routedInstance) stage() error {
	for _, s := range r.sessions {
		for _, x := range r.p.Inputs {
			in, err := s.eng.EncryptInput(r.p.Net, x)
			if err != nil {
				return err
			}
			s.enc = append(s.enc, in)
		}
	}
	return nil
}

func (r *routedInstance) drivers() int { return 1 }

func (r *routedInstance) counters() map[string]float64 {
	snaps := make([]serve.Snapshot, len(r.nodes))
	for i, n := range r.nodes {
		snaps[i] = settledMetrics(n)
	}
	c := snapshotCounters(snaps...)
	r.mu.Lock()
	c["cluster.redirects"], c["client.retries"] = r.redirects, r.retries
	r.mu.Unlock()
	return c
}

// withRouter runs f against a router that holds no session binding.
//
// A cluster.Router keeps one backend connection per (node, session) for
// as long as it lives, and a session bound that way stays usable on the
// node after the registry has evicted it. So a returning client reaches
// the node's registry — and, evicted, the store — only through a router
// that has no binding for its session yet: a restarted one, or another
// of a stateless tier. Each operation of this workload meets such a
// router. Through one long-lived router every attach after the first is
// a map hit and the workload would measure relay + evaluation only.
func (r *routedInstance) withRouter(f func(addr string) error) (err error) {
	router, err := cluster.NewRouter(cluster.RouterConfig{Members: r.members})
	if err != nil {
		return err
	}
	ln, err := serveOn(router.Serve)
	if err != nil {
		return err
	}
	defer func() {
		router.Shutdown()
		if werr := ln.wait(); err == nil {
			err = werr
		}
		r.mu.Lock()
		r.redirects += float64(router.Stats().Redirects)
		r.mu.Unlock()
	}()
	return f(ln.addr)
}

// returning is one reconnecting client: dial the router, attach (or,
// for a session that has no ID yet, open one by uploading its keys),
// infer once, close. total is the time of the whole call, router
// included; latency is what the client observed.
func (r *routedInstance) returning(s *routedSession, in *core.EncryptedInput, rec *recorder, root, op int) (latency, total time.Duration, logits []int64, err error) {
	start := time.Now()
	err = r.withRouter(func(addr string) error {
		t0 := time.Now()
		sp := rec.begin("client.dial", root, op)
		rc, err := client.DialReliable(addr, s.eng, client.ReliableOptions{})
		rec.end(sp, nil)
		if err != nil {
			return err
		}
		defer func() {
			retries, _, _, _ := rc.Counters()
			r.mu.Lock()
			r.retries += float64(retries)
			r.mu.Unlock()
			_ = rc.Close() // the connection is only being dropped
		}()
		if s.id == "" {
			sp = rec.begin("client.upload", root, op)
			s.id, err = rc.OpenSession()
		} else {
			sp = rec.begin("client.attach", root, op)
			err = rc.Attach(s.id)
		}
		rec.end(sp, nil)
		if err != nil {
			return err
		}
		sp = rec.begin("client.roundtrip", root, op)
		out, err := rc.InferEncrypted(r.p.Net, in, 0)
		rec.end(sp, nil)
		latency = time.Since(t0)
		if err != nil {
			return err
		}
		logits, err = s.eng.DecryptLogits(out)
		return err
	})
	return latency, time.Since(start), logits, err
}

func (r *routedInstance) do(_, op int, rec *recorder) opResult {
	spec := r.p.Ops[op%len(r.p.Ops)]
	var res opResult
	s, in := (*routedSession)(nil), (*core.EncryptedInput)(nil)
	if spec.Kind == opUpload {
		// A client nobody has seen: generating its keys and encrypting
		// its input are that client's preparation, not the operation.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		kp := r.p.Params
		kp.Seed = spec.KeySeed
		eng, err := core.NewEngine(kp)
		if err == nil {
			in, err = eng.EncryptInput(r.p.Net, r.p.Inputs[spec.Input])
		}
		runtime.ReadMemStats(&m1)
		res.Excluded = time.Since(t0)
		res.ExcludedMalloc, res.ExcludedBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		if err != nil {
			res.Err = err
			return res
		}
		s = &routedSession{eng: eng}
	} else {
		s = r.sessions[spec.Session]
		in = s.enc[spec.Input]
	}
	root := rec.begin("op", -1, op)
	lat, total, logits, err := r.returning(s, in, rec, root, op)
	rec.end(root, nil)
	// Starting and stopping the operation's router is not the client's.
	res.Latency, res.Err = lat, err
	res.Excluded += total - lat
	if res.Err == nil {
		res.MaxErr, res.Err = checkLogits(logits, r.p.Want[spec.Input], r.p.Hard)
	}
	return res
}

func (r *routedInstance) close() error {
	var err error
	for i, n := range r.nodes {
		n.Shutdown()
		if i < len(r.nodeLns) {
			if werr := r.nodeLns[i].wait(); err == nil {
				err = werr
			}
		}
	}
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}
