package serve_test

import (
	"errors"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

// TestServeRateLimit: with a per-session token bucket configured, a
// session that exhausts its burst gets the typed BUSY immediately (no
// queueing), the rejection is counted separately from queue
// backpressure, and advancing the clock refills admission — all on the
// manual clock, so the test is deterministic. The bucket belongs to the
// session, not the connection: another connection on the same session
// finds it dry, another session has its own.
func TestServeRateLimit(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	clk := serve.NewManualClock()
	srv, addr := startServer(t, serve.Config{
		MaxBatch:   1, // flush on every request: MaxWait never matters
		MaxWait:    time.Hour,
		MaxQueue:   64,
		Clock:      clk,
		RatePerSec: 1,
		Burst:      2,
	})

	c, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}

	// The burst admits two requests back to back.
	for i := 0; i < 2; i++ {
		if _, err := c.Infer(model, serve.DemoInput(uint64(700+i)), 0); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	// The third is over budget: typed BUSY, straight away.
	_, err = c.Infer(model, serve.DemoInput(702), 0)
	var re *serve.RequestError
	if !errors.As(err, &re) || re.Code != serve.CodeBusy {
		t.Fatalf("over-rate request: got %v, want BUSY", err)
	}

	// One simulated second refills one token.
	clk.Advance(time.Second)
	if _, err := c.Infer(model, serve.DemoInput(703), 0); err != nil {
		t.Fatalf("request after refill: %v", err)
	}

	snap := srv.Metrics()
	if snap.Requests.RateLimited != 1 {
		t.Fatalf("rate_limited=%d, want 1", snap.Requests.RateLimited)
	}
	if snap.Requests.RejectedBusy != 0 {
		t.Fatalf("rejected_busy=%d: rate limiting leaked into queue backpressure", snap.Requests.RejectedBusy)
	}
	if snap.Requests.Completed != 3 {
		t.Fatalf("completed=%d, want 3", snap.Requests.Completed)
	}

	// A second connection on the same session spends from the same,
	// now dry, bucket.
	c2, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Attach(c.SessionID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Infer(model, serve.DemoInput(704), 0); !errors.As(err, &re) || re.Code != serve.CodeBusy {
		t.Fatalf("second connection on a dry session: got %v, want BUSY", err)
	}

	// A second session has its own bucket: it is admitted although the
	// first session's bucket is dry.
	p := core.TestParams()
	p.Seed = 7001
	eng2, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := client.Dial(addr, eng2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.OpenSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Infer(model, serve.DemoInput(705), 0); err != nil {
		t.Fatalf("fresh session rate-limited by a stranger's bucket: %v", err)
	}
	if got := srv.Metrics().Requests.RateLimited; got != 2 {
		t.Fatalf("rate_limited=%d, want 2", got)
	}
}
