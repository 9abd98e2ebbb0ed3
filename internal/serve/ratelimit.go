package serve

import (
	"sync"
	"time"
)

// tokenBucket is per-session admission control: each inference request
// spends one token; tokens refill continuously at rate per second up to
// burst. Time comes from the injected Clock, so the refill schedule is
// deterministic under ManualClock in tests. The zero-size struct is
// never used — build with newTokenBucket; a nil *tokenBucket admits
// everything (rate limiting disabled).
//
// Every connection inferring under the session spends from the same
// bucket, so it locks.
type tokenBucket struct {
	mu     sync.Mutex
	clk    Clock
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// newTokenBucket builds a full bucket. rate must be > 0; burst < 1 is
// raised to 1 so a conforming client can always make progress.
func newTokenBucket(clk Clock, rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{clk: clk, rate: rate, burst: b, tokens: b, last: clk.Now()}
}

// allow spends one token if available, refilling for the elapsed time
// first. A nil bucket always allows.
func (tb *tokenBucket) allow() bool {
	if tb == nil {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.clk.Now()
	if elapsed := now.Sub(tb.last); elapsed > 0 {
		tb.tokens += elapsed.Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}
