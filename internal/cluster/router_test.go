package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"athena/internal/serve"
)

// startRouter spins a router over the given membership on a loopback
// listener.
func startRouter(t *testing.T, m *Membership) (*Router, string) {
	t.Helper()
	r, err := NewRouter(RouterConfig{
		Members:      m,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
		DialTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(r.Shutdown)
	return r, ln.Addr().String()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// expectError reads one frame and requires a typed error with code.
func expectError(t *testing.T, conn net.Conn, code serve.ErrCode) {
	t.Helper()
	typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if typ != serve.FrameError {
		t.Fatalf("frame type %d, want FrameError", typ)
	}
	_, got, msg, err := serve.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != code {
		t.Fatalf("error code %s (%q), want %s", got, msg, code)
	}
}

// TestRouterNoActiveNodes: with an empty ring every session operation
// answers the typed UNAVAILABLE instead of hanging or dropping.
func TestRouterNoActiveNodes(t *testing.T) {
	_, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	if err := serve.WriteFrame(conn, serve.FrameSessionAttach,
		serve.EncodeSessionID(1, "00112233445566778899aabbccddeeff")); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn, serve.CodeUnavailable)
}

// TestRouterUnreachableOwner: a ring whose owner does not answer TCP
// yields UNAVAILABLE (retryable), and the router connection survives
// to answer the next request.
func TestRouterUnreachableOwner(t *testing.T) {
	// A listener we close immediately: connection refused thereafter.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	m := NewMembership(8)
	if err := m.Join("dead", deadAddr, ""); err != nil {
		t.Fatal(err)
	}
	_, addr := startRouter(t, m)
	conn := dialRaw(t, addr)
	for i := 0; i < 2; i++ { // twice: the conn must stay usable after the error
		if err := serve.WriteFrame(conn, serve.FrameSessionAttach,
			serve.EncodeSessionID(uint64(i+1), "00112233445566778899aabbccddeeff")); err != nil {
			t.Fatal(err)
		}
		expectError(t, conn, serve.CodeUnavailable)
	}
}

// TestRouterMalformedInfer: an inference payload too short to carry a
// header is answered BAD_REQUEST before any backend work.
func TestRouterMalformedInfer(t *testing.T) {
	_, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	if err := serve.WriteFrame(conn, serve.FrameInfer, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn, serve.CodeBadRequest)
}

// stubNode is a listener standing in for a node: it answers every
// request with the given error code under the request's own ID.
func stubNode(t *testing.T, code serve.ErrCode) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					_, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
					if err != nil {
						return
					}
					id, _, _ := serve.DecodeTagged(payload)
					_ = serve.WriteFrame(conn, serve.FrameError, serve.EncodeError(id, code, "stub"))
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterInferWithoutSession: an inference naming a session the
// connection never attached is relayed to the session's owner as is —
// the node, not the router, decides it does not know the session — and
// the answer comes back under the client's own request ID.
func TestRouterInferWithoutSession(t *testing.T) {
	m := NewMembership(8)
	if err := m.Join("stub", stubNode(t, serve.CodeSessionNotFound), ""); err != nil {
		t.Fatal(err)
	}
	r, addr := startRouter(t, m)
	conn := dialRaw(t, addr)
	if err := serve.WriteFrame(conn, serve.FrameInfer,
		serve.EncodeInfer(7, 0, "00112233445566778899aabbccddeeff", "m", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != serve.FrameError {
		t.Fatalf("frame type %d, want FrameError", typ)
	}
	id, code, _, err := serve.DecodeError(payload)
	if err != nil || id != 7 || code != serve.CodeSessionNotFound {
		t.Fatalf("reply (id %d, %s, %v), want (id 7, SESSION_NOT_FOUND)", id, code, err)
	}
	if rs := r.Stats(); rs.InfersRelayed != 1 || rs.Redirects != 0 || rs.BackendDials != 1 {
		t.Fatalf("router stats %+v, want one relayed infer over one dial", rs)
	}
}

// TestRouterBusyCountsOnlyTheCap: a registration refused because the
// node connection is dead answers UNAVAILABLE and is not counted as
// Busy; one refused at the in-flight cap answers BUSY and is.
func TestRouterBusyCountsOnlyTheCap(t *testing.T) {
	m := NewMembership(8)
	if err := m.Join("n", "127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Members: m, MaxInflightPerBackend: 1})
	if err != nil {
		t.Fatal(err)
	}
	cc := &clientConn{r: r, conn: nopConn{}, routed: map[string]string{}}
	bc := &backendConn{node: "n", ready: make(chan struct{}), pending: map[uint64]pendingRoute{}, dead: true}
	close(bc.ready)
	r.backends["n"] = bc
	attach := func() { r.relay(cc, serve.FrameSessionAttach, serve.EncodeSessionID(1, "s"), "s") }

	if _, err := bc.register(cc, 1, 1); !errors.As(err, new(*serve.RequestError)) || err == errBusy {
		t.Fatalf("register on a dead backend: %v, want UNAVAILABLE", err)
	}
	attach()
	if rs := r.Stats(); rs.Busy != 0 {
		t.Fatalf("dead backend counted as busy: %+v", rs)
	}

	bc.dead = false
	bc.pending[1] = pendingRoute{cc: cc}
	attach()
	if rs := r.Stats(); rs.Busy != 1 || rs.SessionsRouted != 0 {
		t.Fatalf("after a refusal at the cap: %+v, want busy 1 and nothing routed", rs)
	}
}

// nopConn is a client connection that swallows every write.
type nopConn struct{ net.Conn }

func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// TestRouterUnexpectedFrameType: server-to-client frame types arriving
// from a client are rejected with the connection-level error.
func TestRouterUnexpectedFrameType(t *testing.T) {
	_, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	if err := serve.WriteFrame(conn, serve.FrameResult, []byte("nonsense")); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn, serve.CodeBadRequest)
}

// TestRouterOneByteTrickle: a frame delivered one byte at a time (the
// classic slow-loris shape) is reassembled and answered exactly like a
// whole one.
func TestRouterOneByteTrickle(t *testing.T) {
	_, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	frame := serve.AppendFrame(nil, serve.FrameSessionAttach,
		serve.EncodeSessionID(1, "00112233445566778899aabbccddeeff"))
	for _, b := range frame {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	expectError(t, conn, serve.CodeUnavailable)
}

// TestRouterTruncatedFrame: a header promising more payload than ever
// arrives must not wedge the router — the connection just times out
// and dies, and the router keeps serving others.
func TestRouterTruncatedFrame(t *testing.T) {
	r, err := NewRouter(RouterConfig{
		Members:      NewMembership(8),
		ReadTimeout:  200 * time.Millisecond, // short: the test waits this out
		WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(r.Shutdown)
	addr := ln.Addr().String()

	conn := dialRaw(t, addr)
	frame := serve.AppendFrame(nil, serve.FrameSessionAttach, make([]byte, 100))
	if _, err := conn.Write(frame[:20]); err != nil { // header + 8 of 100 payload bytes
		t.Fatal(err)
	}
	// The router must hang up on its own (read deadline), not loop.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("router answered a truncated frame")
	}

	// A second client is unaffected.
	conn2 := dialRaw(t, addr)
	if err := serve.WriteFrame(conn2, serve.FrameSessionAttach,
		serve.EncodeSessionID(1, "00112233445566778899aabbccddeeff")); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn2, serve.CodeUnavailable)
}

// TestRouterGarbageMagic: random bytes instead of a frame header drop
// the connection without disturbing the listener.
func TestRouterGarbageMagic(t *testing.T) {
	_, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := conn.Read(buf); err != nil {
			break // closed, as it should be
		}
	}
	conn2 := dialRaw(t, addr)
	if err := serve.WriteFrame(conn2, serve.FrameInfer, []byte{9}); err != nil {
		t.Fatal(err)
	}
	expectError(t, conn2, serve.CodeBadRequest)
}

// TestRouterShutdownIdempotent: Shutdown twice is safe, and a router
// refuses to serve again afterwards.
func TestRouterShutdownIdempotent(t *testing.T) {
	r, addr := startRouter(t, NewMembership(8))
	conn := dialRaw(t, addr)
	_ = conn
	r.Shutdown()
	r.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := r.Serve(ln); err == nil {
		t.Fatal("shut-down router accepted a new listener")
	}
}
