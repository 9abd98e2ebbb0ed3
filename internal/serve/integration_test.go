package serve_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

// itEnv caches the client-side engine across integration tests (keygen
// is the expensive part).
var itEnv struct {
	once sync.Once
	eng  *core.Engine
	err  error
}

func itEngine(t *testing.T) *core.Engine {
	t.Helper()
	itEnv.once.Do(func() {
		itEnv.eng, itEnv.err = core.NewEngine(core.TestParams())
	})
	if itEnv.err != nil {
		t.Fatal(itEnv.err)
	}
	return itEnv.eng
}

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	if cfg.Params.LogN == 0 {
		cfg.Params = core.TestParams()
	}
	if cfg.Models == nil {
		demo := serve.DemoNet()
		cfg.Models = map[string]*qnn.QNetwork{demo.Name: demo}
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeSixteenConcurrentClients is the headline end-to-end check:
// 16 client connections share one uploaded session, stream concurrent
// requests, and every decrypted result matches the plaintext reference
// — with the batcher realizing a mean batch size above 1.
func TestServeSixteenConcurrentClients(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	_, addr := startServer(t, serve.Config{
		MaxBatch: 16,
		MaxWait:  750 * time.Millisecond,
		MaxQueue: 64,
	})

	const N = 16
	// Encrypt serially: encryption consumes the engine's PRNG stream.
	ins := make([]*core.EncryptedInput, N)
	refs := make([][]int64, N)
	for i := 0; i < N; i++ {
		x := serve.DemoInput(uint64(300 + i))
		refs[i] = model.ForwardInt(x).Data
		var err error
		ins[i], err = eng.EncryptInput(model, x)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Connection 0 uploads the keys; the other 15 attach by ID — the
	// session is shared, which is what makes their requests batchable.
	clients := make([]*client.Client, N)
	for i := range clients {
		c, err := client.Dial(addr, eng, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	id, err := clients[0].OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < N; i++ {
		if err := clients[i].Attach(id); err != nil {
			t.Fatal(err)
		}
	}

	outs := make([]*core.EncryptedLogits, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = clients[i].InferEncrypted(model, ins[i], 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Decrypt serially on the client engine and check against plaintext
	// at the repo's batched e_ms tolerance.
	for i := range outs {
		got, err := eng.DecryptLogits(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if d := got[j] - refs[i][j]; d < -3 || d > 3 {
				t.Fatalf("client %d logit %d: got %d, plaintext %d", i, j, got[j], refs[i][j])
			}
		}
	}

	snap, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requests.Completed != N {
		t.Fatalf("completed %d, want %d", snap.Requests.Completed, N)
	}
	if snap.MeanBatchSize <= 1 {
		t.Fatalf("mean batch size %.2f: batching never coalesced", snap.MeanBatchSize)
	}
	if snap.Sessions.Count != 1 {
		t.Fatalf("%d sessions resident, want 1 shared", snap.Sessions.Count)
	}
	t.Logf("16 clients: %d batches, mean batch size %.2f, %d FBS calls",
		snap.Batches, snap.MeanBatchSize, snap.Ops.FBSCalls)
}

// TestServeLoneRequestWaitsOneEvaluation: on the wall clock, a lone
// request waits the full MaxWait only until the server has evaluated a
// batch of its model; from then on its group flushes after one measured
// evaluation time, far inside a 2 s MaxWait.
func TestServeLoneRequestWaitsOneEvaluation(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	const maxWait = 2 * time.Second
	srv, addr := startServer(t, serve.Config{MaxWait: maxWait})
	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(seed uint64) time.Duration {
		t.Helper()
		x := serve.DemoInput(seed)
		in, err := eng.EncryptInput(model, x)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		out, err := c.InferEncrypted(model, in, 0)
		rt := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.DecryptLogits(out)
		if err != nil {
			t.Fatal(err)
		}
		ref := model.ForwardInt(x).Data
		for j := range got {
			if d := got[j] - ref[j]; d < -3 || d > 3 {
				t.Fatalf("logit %d: got %d, plaintext %d", j, got[j], ref[j])
			}
		}
		return rt
	}

	if warm := roundTrip(500); warm < maxWait {
		t.Fatalf("warm-up round trip %v: nothing was measured yet, want ≥ MaxWait %v", warm, maxWait)
	}
	lone := roundTrip(501)
	snap := srv.Metrics()
	t.Logf("lone round trip %v; %d batches evaluated in %.1f ms, groups waited %.1f ms",
		lone, snap.Batches, snap.EvalTimeMS, snap.GroupWaitMS)
	if lone >= time.Second {
		t.Fatalf("lone round trip %v after a measured batch, want well under 1 s (MaxWait %v)", lone, maxWait)
	}
	if snap.Batches != 2 || snap.Flushes.Timer != 2 {
		t.Fatalf("batches %d, flushes %+v; want 2 timer flushes", snap.Batches, snap.Flushes)
	}
}

// TestServeBusyPreservesSessions: overflowing the admission queue
// returns BUSY to the overflow request only — the session stays
// resident and the queued request still completes.
func TestServeBusyPreservesSessions(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	clk := serve.NewManualClock()
	srv, addr := startServer(t, serve.Config{
		MaxBatch: 100,
		MaxWait:  time.Minute, // fake-clock minutes: holds the queue full
		MaxQueue: 1,
		Clock:    clk,
	})

	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}

	// First request occupies the whole queue (the fake clock never
	// fires MaxWait on its own).
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Infer(model, serve.DemoInput(400), 0)
		firstDone <- err
	}()
	waitFor(t, "first request admitted", func() bool {
		return srv.Metrics().QueueDepth >= 1
	})

	// Second request must get a typed BUSY, not hang and not kill the
	// session.
	_, err = c.Infer(model, serve.DemoInput(401), 0)
	var re *serve.RequestError
	if !errors.As(err, &re) || re.Code != serve.CodeBusy {
		t.Fatalf("overflow request: got %v, want BUSY", err)
	}

	// The session survived: a fresh connection can still attach.
	c2, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Attach(id); err != nil {
		t.Fatalf("attach after BUSY: %v", err)
	}

	// Release the queued request and confirm it completes normally.
	clk.Advance(time.Minute)
	select {
	case err := <-firstDone:
		if err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("queued request never completed")
	}
	snap := srv.Metrics()
	if snap.Requests.RejectedBusy != 1 || snap.Requests.Completed != 1 {
		t.Fatalf("busy=%d completed=%d, want 1/1", snap.Requests.RejectedBusy, snap.Requests.Completed)
	}
}

// TestServeAttachRightAfterReply: a node whose registry holds one
// session answers a request on session A, and another client attaches to
// session B the moment that reply is handed to the socket, before A's
// client has read it. B's cold load must find A unpinned and evict it:
// a finished request holds no pin once its reply is on the way.
func TestServeAttachRightAfterReply(t *testing.T) {
	engA := itEngine(t)
	p := core.TestParams()
	p.Seed = 77
	engB, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	model := serve.DemoNet()
	var blob bytes.Buffer
	if err := engA.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Params:      core.TestParams(),
		Models:      map[string]*qnn.QNetwork{model.Name: model},
		MaxWait:     5 * time.Millisecond,
		DataDir:     t.TempDir(),
		MemCapBytes: int64(blob.Len()) * 3 / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	next := make(chan string, 1)
	attached := make(chan error, 1)
	hl := &resultHookListener{Listener: ln, onResult: func() {
		c, err := client.Dial(addr, engB, client.Options{})
		if err == nil {
			err = c.Attach(<-next)
			c.Close()
		}
		attached <- err
	}}
	go srv.Serve(hl)
	t.Cleanup(srv.Shutdown)

	dial := func(eng *core.Engine) *client.Client {
		c, err := client.Dial(addr, eng, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	cB := dial(engB)
	idB, err := cB.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	cA := dial(engA)
	if _, err := cA.OpenSession(); err != nil { // evicts B
		t.Fatal(err)
	}
	next <- idB
	x := serve.DemoInput(500)
	got, err := cA.Infer(model, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-attached; err != nil {
		t.Fatalf("attach to B as A's reply is written: %v", err)
	}
	ref := model.ForwardInt(x).Data
	for j := range got {
		if d := got[j] - ref[j]; d < -3 || d > 3 {
			t.Fatalf("logit %d: got %d, plaintext %d", j, got[j], ref[j])
		}
	}
	if _, err := cB.Infer(model, x, 0); err != nil {
		t.Fatalf("B after its cold load: %v", err)
	}
	if s := srv.Metrics().Sessions; s.Evictions != 2 || s.ColdLoads != 1 {
		t.Fatalf("%d evictions, %d cold loads: want 2 (B by A's upload, A by B's attach) and 1", s.Evictions, s.ColdLoads)
	}
}

// resultHookListener hands out connections that call onResult, once per
// listener, just before the first result frame reaches a socket.
type resultHookListener struct {
	net.Listener
	onResult func()
	once     sync.Once
}

func (l *resultHookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &resultHookConn{Conn: c, l: l}, nil
}

type resultHookConn struct {
	net.Conn
	l *resultHookListener
}

func (c *resultHookConn) Write(p []byte) (int, error) {
	if hdr := serve.AppendFrame(nil, serve.FrameResult, nil); bytes.HasPrefix(p, hdr[:6]) {
		c.l.once.Do(c.l.onResult)
	}
	return c.Conn.Write(p)
}

// TestServeDrainCompletesInflight: Shutdown answers every admitted
// request before closing connections, and the listener stops accepting.
func TestServeDrainCompletesInflight(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	clk := serve.NewManualClock()
	srv, addr := startServer(t, serve.Config{
		MaxBatch: 100,
		MaxWait:  time.Hour, // pending until drain flushes it
		MaxQueue: 8,
		Clock:    clk,
	})

	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	x := serve.DemoInput(500)
	done := make(chan []int64, 1)
	fail := make(chan error, 1)
	go func() {
		logits, err := c.Infer(model, x, 0)
		if err != nil {
			fail <- err
			return
		}
		done <- logits
	}()
	waitFor(t, "request admitted", func() bool {
		return srv.Metrics().QueueDepth >= 1
	})

	// Drain with the request still pending in a forming batch: Shutdown
	// must flush it, answer, then close.
	srv.Shutdown()
	select {
	case logits := <-done:
		ref := model.ForwardInt(x).Data
		for j := range logits {
			if d := logits[j] - ref[j]; d < -3 || d > 3 {
				t.Fatalf("drained request logit %d: got %d, plaintext %d", j, logits[j], ref[j])
			}
		}
	case err := <-fail:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request lost during drain")
	}

	// The listener is gone: new connections are refused.
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		// Accept loop may race the close by one connection; what must
		// hold is that no new work is admitted.
		c3, err := client.Dial(addr, eng, client.Options{})
		if err == nil {
			defer c3.Close()
			if _, err := c3.OpenSession(); err == nil {
				t.Fatal("server accepted a session after shutdown")
			}
		}
	}
}

// TestServeTypedErrors walks the protocol's failure answers.
func TestServeTypedErrors(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	_, addr := startServer(t, serve.Config{MaxWait: 5 * time.Millisecond})

	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var re *serve.RequestError
	// Inference without a session never leaves the client.
	if _, err := c.Infer(model, serve.DemoInput(600), 0); !errors.Is(err, client.ErrNoSession) {
		t.Fatalf("no-session inference: got %v, want client.ErrNoSession", err)
	}
	// Attach to a session that was never opened.
	if err := c.Attach("00000000000000000000000000000000"); !errors.As(err, &re) || re.Code != serve.CodeSessionNotFound {
		t.Fatalf("bogus attach: got %v, want SESSION_NOT_FOUND", err)
	}
	if _, err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	// Unknown model.
	ghost := serve.DemoNet()
	ghost.Name = "ghost"
	if _, err := c.Infer(ghost, serve.DemoInput(601), 0); !errors.As(err, &re) || re.Code != serve.CodeModelNotFound {
		t.Fatalf("unknown model: got %v, want MODEL_NOT_FOUND", err)
	}
	// A successful request still works on the same connection after the
	// errors above.
	x := serve.DemoInput(602)
	got, err := c.Infer(model, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := model.ForwardInt(x).Data
	for j := range got {
		if d := got[j] - ref[j]; d < -3 || d > 3 {
			t.Fatalf("logit %d: got %d, plaintext %d", j, got[j], ref[j])
		}
	}
}

// TestServeGarbageSession: a malformed key upload and an inference
// naming an unknown session are rejected with typed errors tagged by
// their request IDs, and the connection remains usable.
func TestServeGarbageSession(t *testing.T) {
	eng := itEngine(t)
	_, addr := startServer(t, serve.Config{MaxWait: 5 * time.Millisecond})
	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hand-roll a bogus SessionNew frame through the raw protocol.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	expectError := func(typ serve.FrameType, payload []byte, wantID uint64, want serve.ErrCode) {
		t.Helper()
		if err := serve.WriteFrame(raw, typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, reply, err := serve.ReadFrame(raw, serve.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if rtyp != serve.FrameError {
			t.Fatalf("frame type %d, want FrameError", rtyp)
		}
		id, code, _, err := serve.DecodeError(reply)
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID || code != want {
			t.Fatalf("error (id %d, %s), want (id %d, %s)", id, code, wantID, want)
		}
	}
	expectError(serve.FrameSessionNew, serve.EncodeTagged(1, []byte("junk keys")), 1, serve.CodeBadRequest)
	expectError(serve.FrameInfer, serve.EncodeInfer(2, 0, "00000000000000000000000000000000", serve.DemoNet().Name, nil),
		2, serve.CodeSessionNotFound)

	// The same connection can then open a real session.
	var blob bytes.Buffer
	if err := eng.WriteEvalKeys(&blob); err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteFrame(raw, serve.FrameSessionNew, serve.EncodeTagged(3, blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := serve.ReadFrame(raw, serve.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != serve.FrameSessionOK {
		t.Fatalf("frame type %d, want FrameSessionOK after recovery", typ)
	}
	if id, session, err := serve.DecodeSessionID(payload); err != nil || id != 3 || session != serve.SessionID(blob.Bytes()) {
		t.Fatalf("session reply (id %d, %q, %v), want (id 3, %q)", id, session, err, serve.SessionID(blob.Bytes()))
	}
}
