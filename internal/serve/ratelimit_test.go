package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTokenBucketBurstAndRefill: the bucket starts full, spends down to
// zero, and refills continuously at the configured rate — all on the
// manual clock, so the arithmetic is exact.
func TestTokenBucketBurstAndRefill(t *testing.T) {
	clk := NewManualClock()
	tb := newTokenBucket(clk, 2.0, 3) // 2 req/s, burst 3

	for i := 0; i < 3; i++ {
		if !tb.allow() {
			t.Fatalf("request %d inside the burst denied", i)
		}
	}
	if tb.allow() {
		t.Fatal("request beyond the burst allowed with no time elapsed")
	}

	// Half a second at 2/s buys exactly one token.
	clk.Advance(500 * time.Millisecond)
	if !tb.allow() {
		t.Fatal("refilled token denied")
	}
	if tb.allow() {
		t.Fatal("second token allowed after a one-token refill")
	}

	// A long idle period caps at the burst, not the elapsed total.
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !tb.allow() {
			t.Fatalf("request %d after refill-to-burst denied", i)
		}
	}
	if tb.allow() {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

// TestTokenBucketMinimumBurst: a burst below 1 is raised to 1 so a
// configured limiter always admits something.
func TestTokenBucketMinimumBurst(t *testing.T) {
	clk := NewManualClock()
	tb := newTokenBucket(clk, 0.5, 0)
	if !tb.allow() {
		t.Fatal("first request denied with minimum burst")
	}
	if tb.allow() {
		t.Fatal("second immediate request allowed with burst 1")
	}
	clk.Advance(2 * time.Second) // 0.5/s × 2s = 1 token
	if !tb.allow() {
		t.Fatal("token after refill denied")
	}
}

// TestTokenBucketNilAlwaysAllows: the unlimited default is a nil
// bucket.
func TestTokenBucketNilAlwaysAllows(t *testing.T) {
	var tb *tokenBucket
	for i := 0; i < 100; i++ {
		if !tb.allow() {
			t.Fatal("nil limiter denied a request")
		}
	}
}

// TestTokenBucketSharedAcrossGoroutines: every connection inferring
// under a session spends from its one bucket, concurrently; together
// they are admitted exactly the burst.
func TestTokenBucketSharedAcrossGoroutines(t *testing.T) {
	tb := newTokenBucket(NewManualClock(), 1, 20)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if tb.allow() {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 20 {
		t.Fatalf("%d of 40 concurrent requests admitted, want the burst of 20", n)
	}
}
