package client

import (
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"athena/internal/serve"
)

// TestBackoffBounds: delays follow jittered exponential growth — every
// sleep lands in [0.5, 1.5]× the capped base-doubling curve.
func TestBackoffBounds(t *testing.T) {
	var slept []time.Duration
	rc := &Reliable{opts: ReliableOptions{
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		Rand:        func() float64 { return 0.25 }, // deterministic jitter ⇒ 0.75×
	}}
	for attempt := 1; attempt <= 10; attempt++ {
		rc.backoff(attempt)
	}
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000, 2000, 2000}
	for i, w := range want {
		expect := time.Duration(float64(w*time.Millisecond) * 0.75)
		if slept[i] != expect {
			t.Fatalf("attempt %d slept %v, want %v", i+1, slept[i], expect)
		}
	}
}

// TestBackoffJitterSpread: different random draws give different
// delays (the anti-stampede property).
func TestBackoffJitterSpread(t *testing.T) {
	delay := func(r float64) time.Duration {
		var got time.Duration
		rc := &Reliable{opts: ReliableOptions{
			BaseBackoff: 100 * time.Millisecond,
			MaxBackoff:  time.Second,
			Sleep:       func(d time.Duration) { got = d },
			Rand:        func() float64 { return r },
		}}
		rc.backoff(1)
		return got
	}
	lo, hi := delay(0), delay(1)
	if lo != 50*time.Millisecond || hi != 150*time.Millisecond {
		t.Fatalf("jitter envelope [%v, %v], want [50ms, 150ms]", lo, hi)
	}
}

// TestErrorClassification: the retry policy's three answers — wait,
// re-upload, give up — map to the right typed codes.
func TestErrorClassification(t *testing.T) {
	mk := func(c serve.ErrCode) error { return &serve.RequestError{Code: c} }
	for _, c := range []serve.ErrCode{serve.CodeBusy, serve.CodeDraining, serve.CodeUnavailable} {
		if !backsOff(mk(c)) || permanent(mk(c)) {
			t.Fatalf("%s: want backs-off, not permanent", c)
		}
	}
	for _, c := range []serve.ErrCode{serve.CodeSessionNotFound} {
		if !needsKeys(mk(c)) || permanent(mk(c)) {
			t.Fatalf("%s: want needs-keys, not permanent", c)
		}
	}
	for _, c := range []serve.ErrCode{serve.CodeBadRequest, serve.CodeInternal, serve.CodeDeadline} {
		if !permanent(mk(c)) {
			t.Fatalf("%s: want permanent", c)
		}
	}
	if permanent(&serve.RedirectError{Addr: "x", Session: "y"}) {
		t.Fatal("REDIRECT classified permanent")
	}
	if permanent(fmt.Errorf("dial tcp: connection refused")) {
		t.Fatal("transport error classified permanent")
	}
}

// TestDialReliableBoundedRetry: a dead address is retried exactly
// MaxAttempts times with backoff between attempts, then surfaced.
func TestDialReliableBoundedRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	sleeps := 0
	eng := testEngine(t)
	_, err = DialReliable(deadAddr, eng, ReliableOptions{
		Options:     Options{DialTimeout: 200 * time.Millisecond},
		MaxAttempts: 3,
		Sleep:       func(time.Duration) { sleeps++ },
		Rand:        func() float64 { return 0.5 },
	})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if sleeps != 2 {
		t.Fatalf("%d backoffs for 3 attempts, want 2", sleeps)
	}
}

// TestReliableSurvivesReconnect: killing the server connection under a
// Reliable client is repaired transparently — the next call redials
// and re-attaches the session. A raw ASV1 stub stands in for the
// server so no engine work is needed.
func TestReliableSurvivesReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Stub server: answers session opens with a fixed ID, then kills the
	// first connection; later connections keep answering attaches.
	conns := make(chan net.Conn, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- conn
			go func(c net.Conn) {
				for {
					typ, payload, err := serve.ReadFrame(c, serve.DefaultMaxFrame)
					if err != nil {
						return
					}
					id, _, _ := serve.DecodeTagged(payload)
					switch typ {
					case serve.FrameSessionNew, serve.FrameSessionAttach:
						_ = serve.WriteFrame(c, serve.FrameSessionOK, serve.EncodeSessionID(id, "stub-session"))
					case serve.FrameStats:
						_ = serve.WriteFrame(c, serve.FrameStatsReply, serve.EncodeTagged(id, []byte(`{}`)))
					default:
						_ = serve.WriteFrame(c, serve.FrameError, serve.EncodeError(id, serve.CodeBadRequest, "stub"))
					}
				}
			}(conn)
		}
	}()

	eng := testEngine(t)
	rc, err := DialReliable(ln.Addr().String(), eng, ReliableOptions{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {},
		Rand:        func() float64 { return 0.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Attach through the stub (OpenSession would upload real keys; the
	// stub acks attach directly).
	if err := rc.Attach("stub-session"); err != nil {
		t.Fatal(err)
	}

	// Kill the live server-side connection and wait until the client's
	// read loop notices the poison.
	orig := rc.c
	first := <-conns
	first.Close()
	deadline := time.Now().Add(10 * time.Second)
	for orig.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("connection never noticed the close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ensureConn must redial and re-attach without error.
	c2, err := rc.ensureConn()
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if c2 == orig || c2.Err() != nil || c2.SessionID() != "stub-session" {
		t.Fatalf("reconnect handed back a bad connection (same=%v err=%v session=%q)",
			c2 == orig, c2.Err(), c2.SessionID())
	}
	_, reconnects, _, _ := rc.Counters()
	if reconnects == 0 {
		t.Fatal("reconnect not counted")
	}
}

// TestClientRejectsMalformedRedirect: a hostile or buggy router
// emitting a garbage REDIRECT payload poisons the connection with a
// typed error — no panic, no hang.
func TestClientRejectsMalformedRedirect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read whatever the client sends, answer with a truncated
		// redirect payload (header only, no strings).
		_, _, _ = serve.ReadFrame(conn, serve.DefaultMaxFrame)
		_ = serve.WriteFrame(conn, serve.FrameRedirect, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}()

	eng := testEngine(t)
	c, err := Dial(ln.Addr().String(), eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Attach("00112233445566778899aabbccddeeff")
	if err == nil {
		t.Fatal("attach succeeded through a malformed redirect")
	}
	var redir *serve.RedirectError
	if errors.As(err, &redir) {
		t.Fatalf("malformed redirect decoded as a valid one: %v", err)
	}
}

// TestClientHandlesWellFormedRedirect: a proper REDIRECT reply surfaces
// as a typed *serve.RedirectError carrying the new owner.
func TestClientHandlesWellFormedRedirect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
			if err != nil {
				return
			}
			switch typ {
			case serve.FrameSessionAttach:
				_ = serve.WriteFrame(conn, serve.FrameSessionOK, payload)
			case serve.FrameInfer:
				req, err := serve.DecodeInfer(payload)
				if err != nil {
					return
				}
				_ = serve.WriteFrame(conn, serve.FrameRedirect,
					serve.EncodeRedirect(req.ReqID, "10.9.8.7:7700", "00112233445566778899aabbccddeeff"))
			default:
				return
			}
		}
	}()

	eng := testEngine(t)
	c, err := Dial(ln.Addr().String(), eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Attach("00112233445566778899aabbccddeeff"); err != nil {
		t.Fatal(err)
	}
	model := testModel()
	x := testInput()
	_, err = c.Infer(model, x, 0)
	var redir *serve.RedirectError
	if !errors.As(err, &redir) {
		t.Fatalf("got %v, want *serve.RedirectError", err)
	}
	if redir.Addr != "10.9.8.7:7700" || redir.Session != "00112233445566778899aabbccddeeff" {
		t.Fatalf("redirect carried (%q, %q)", redir.Addr, redir.Session)
	}
}

// TestInferDeadlineClamped: a deadline beyond the u32 millisecond field
// (about 49.7 days) is sent as the field's maximum, not wrapped to a
// few milliseconds.
func TestInferDeadlineClamped(t *testing.T) {
	for d, want := range map[time.Duration]uint32{
		0:                                       0,
		time.Nanosecond:                         1,
		1500 * time.Microsecond:                 1,
		math.MaxUint32 * time.Millisecond:       math.MaxUint32,
		(math.MaxUint32 + 1) * time.Millisecond: math.MaxUint32,
		365 * 24 * time.Hour:                    math.MaxUint32,
	} {
		if got := deadlineMS(d); got != want {
			t.Errorf("deadlineMS(%v) = %d, want %d", d, got, want)
		}
	}

	// The encoded field at the boundary, as a server reads it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan uint32, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
			if err != nil {
				return
			}
			if typ == serve.FrameSessionAttach {
				_ = serve.WriteFrame(conn, serve.FrameSessionOK, payload)
				continue
			}
			req, err := serve.DecodeInfer(payload)
			if err != nil {
				return
			}
			got <- req.DeadlineMS
			_ = serve.WriteFrame(conn, serve.FrameError, serve.EncodeError(req.ReqID, serve.CodeBusy, "stub"))
		}
	}()
	eng := testEngine(t)
	c, err := Dial(ln.Addr().String(), eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Attach("00112233445566778899aabbccddeeff"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(testModel(), testInput(), (math.MaxUint32+1)*time.Millisecond); err == nil {
		t.Fatal("stub answered BUSY, but Infer succeeded")
	}
	if ms := <-got; ms != math.MaxUint32 {
		t.Fatalf("encoded deadline %d ms, want %d", ms, uint32(math.MaxUint32))
	}
}
