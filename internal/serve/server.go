package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/store"
)

// Config configures a Server.
type Config struct {
	// Params are the FHE parameters every client must share.
	Params core.Params
	// Models maps model name → network hosted by this server.
	Models map[string]*qnn.QNetwork

	// Batcher tuning (zero values take the BatcherConfig defaults).
	// A forming batch waits at most MaxWait for company, and no longer
	// than the most recent batch of its model took to evaluate.
	MaxBatch  int
	MaxWait   time.Duration
	MaxQueue  int
	Executors int

	// MemCapBytes caps resident session key material (0 = 1 GiB).
	MemCapBytes int64
	// MaxFrame bounds one frame payload (0 = DefaultMaxFrame).
	MaxFrame uint32

	// DataDir enables the durable session tier: an uploaded key blob is
	// a fsync'd file here, named by its content address, before the
	// upload is acked; it survives restarts, and evicted sessions reload
	// from disk on attach ("" = memory-only).
	DataDir string
	// DiskCapBytes bounds the durable tier's on-disk footprint; under
	// pressure sessions this node does not own, then the least recently
	// accessed, are evicted (0 = unbounded). Only meaningful with
	// DataDir set.
	DiskCapBytes int64

	// RatePerSec enables token-bucket admission per session: each
	// inference request spends one token from its session's bucket,
	// refilled at this rate up to Burst. Exhaustion answers the request
	// with the typed BUSY the clients already back off on (0 = no rate
	// limit).
	RatePerSec float64
	// Burst is the token-bucket capacity (≥1 once rate limiting is on;
	// 0 takes a default of 2× MaxBatch so a well-behaved client can
	// fill a batch without tripping the limiter).
	Burst int

	// ReadTimeout bounds the wait for the next frame on an idle
	// connection; WriteTimeout bounds one reply write. Zero values take
	// generous defaults (10 min read, 30 s write).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// Clock overrides time for tests (nil = wall clock).
	Clock Clock
}

// Server hosts encrypted inference over the frame protocol.
type Server struct {
	cfg      Config
	registry *Registry
	batcher  *Batcher
	metrics  *Metrics
	store    *store.Store   // nil when DataDir is unset
	recovery store.Recovery // what Open found in DataDir

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	connWG sync.WaitGroup
}

// NewServer validates cfg and builds the serving stack (registry,
// batcher, metrics). Call Serve or ListenAndServe to accept clients.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	for name, q := range cfg.Models {
		if q == nil || q.Name != name {
			return nil, fmt.Errorf("serve: model entry %q does not match network name", name)
		}
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.RatePerSec < 0 {
		return nil, fmt.Errorf("serve: negative rate %v", cfg.RatePerSec)
	}
	if cfg.RatePerSec > 0 && cfg.Burst == 0 {
		mb := cfg.MaxBatch
		if mb <= 0 {
			mb = 16
		}
		cfg.Burst = 2 * mb
	}
	m := NewMetrics()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.Params, cfg.MemCapBytes),
		metrics:  m,
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.RatePerSec > 0 {
		s.registry.newLimiter = func() *tokenBucket { return newTokenBucket(cfg.Clock, cfg.RatePerSec, cfg.Burst) }
	}
	if cfg.DataDir != "" {
		st, rec, err := store.Open(cfg.DataDir, store.Options{DiskCapBytes: cfg.DiskCapBytes})
		if err != nil {
			return nil, fmt.Errorf("serve: opening session store: %w", err)
		}
		s.store, s.recovery = st, rec
		s.registry.SetStore(st)
	}
	s.batcher = NewBatcher(BatcherConfig{
		MaxBatch:  cfg.MaxBatch,
		MaxWait:   cfg.MaxWait,
		MaxQueue:  cfg.MaxQueue,
		Executors: cfg.Executors,
		Clock:     cfg.Clock,
	}, m)
	return s, nil
}

// Metrics exposes the server's counters (for admin endpoints and tests).
func (s *Server) Metrics() Snapshot { return s.metrics.Snapshot(s.registry, s.batcher) }

// Recovery reports what the durable tier found on boot (zero value when
// DataDir is unset).
func (s *Server) Recovery() store.Recovery { return s.recovery }

// SetSessionOwnership installs the cluster's ownership predicate:
// owned(id) reports whether this node currently owns session id on the
// consistent-hash ring. Sessions the node does not own become the
// preferred eviction victims in both tiers (registry LRU and durable
// store), so a drained-away session's key material yields its RAM and
// disk to sessions the node actually serves. nil clears the hint
// (every session treated as owned). Safe to call while serving; the
// predicate must be safe for concurrent use.
func (s *Server) SetSessionOwnership(owned func(id string) bool) {
	s.registry.SetOwned(owned)
	if s.store != nil {
		s.store.SetEvictionHint(owned)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until the listener is closed by
// Shutdown. It returns nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("serve: server already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.metrics.ConnOpened()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: the listener stops accepting, queued and
// in-flight requests complete (new ones are rejected with DRAINING),
// then every connection is closed. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if already {
		return
	}
	// Let every admitted request finish and be answered first.
	s.batcher.Drain()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	// With all traffic drained, no upload is in flight: close the store
	// (every acked blob is on disk already).
	if s.store != nil {
		_ = s.store.Close()
	}
}

// connState is the per-connection state: a write mutex so executor
// callbacks, session handlers and the read loop never interleave reply
// frames. No session: every request names its own.
type connState struct {
	s    *Server
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // reusable frame staging, guarded by wmu
}

func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	st := &connState{s: s, conn: c}
	defer func() {
		_ = c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	// Inference inputs are parsed, not retained, so one arena serves the
	// connection's frames without per-frame allocations. A key upload is
	// the exception: its handler takes the frame buffer, and the next
	// frame is read into a fresh arena.
	var arena []byte
	for {
		if err := c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			return
		}
		typ, payload, err := ReadFrameInto(c, &arena, s.cfg.MaxFrame)
		if err != nil {
			return // io error, timeout, or clean EOF: drop the connection
		}
		if typ == FrameSessionNew {
			arena = nil
		}
		if !s.dispatch(st, typ, payload) {
			return
		}
	}
}

// dispatch handles one frame; false closes the connection. Uploads and
// attaches may build an engine, so they run off the read loop, counted
// by connWG (Shutdown waits on it before closing the store), and a
// shared connection keeps reading other sessions' infers meanwhile.
func (s *Server) dispatch(st *connState, typ FrameType, payload []byte) bool {
	switch typ {
	case FrameSessionNew:
		reqID, blob, err := DecodeTagged(payload)
		if err != nil {
			return st.fail(err)
		}
		s.connWG.Add(1)
		go s.handleSessionNew(st, reqID, blob)
		return true

	case FrameSessionAttach:
		reqID, id, err := DecodeSessionID(payload)
		if err != nil {
			return st.fail(err)
		}
		s.connWG.Add(1)
		go s.handleSessionAttach(st, reqID, id)
		return true

	case FrameInfer:
		return s.handleInfer(st, payload)

	case FrameStats:
		reqID, _, err := DecodeTagged(payload)
		if err != nil {
			return st.fail(err)
		}
		doc, err := json.Marshal(s.Metrics())
		if err != nil {
			return st.writeError(reqID, CodeInternal, err.Error())
		}
		return st.write(FrameStatsReply, EncodeTagged(reqID, doc))

	default:
		return st.fail(fmt.Errorf("unexpected frame type %d", typ))
	}
}

func (s *Server) handleSessionNew(st *connState, reqID uint64, blob []byte) {
	defer s.connWG.Done()
	sess, created, err := s.registry.Open(blob)
	if err != nil {
		st.writeError(reqID, sessionErrCode(err, CodeBadRequest), err.Error())
		return
	}
	if created {
		s.metrics.SessionOpened()
	}
	st.write(FrameSessionOK, EncodeSessionID(reqID, sess.ID))
}

func (s *Server) handleSessionAttach(st *connState, reqID uint64, id string) {
	defer s.connWG.Done()
	if _, err := s.registry.Lookup(id); err != nil {
		st.writeError(reqID, sessionErrCode(err, CodeInternal), "session "+id+": "+err.Error())
		return
	}
	st.write(FrameSessionOK, EncodeSessionID(reqID, id))
}

// sessionErrCode types a failed session upload or resolution; other is
// the code of any error the registry does not name.
func sessionErrCode(err error, other ErrCode) ErrCode {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return CodeSessionNotFound
	case errors.Is(err, ErrRegistryFull):
		return CodeRegistryFull
	}
	return other
}

func (s *Server) handleInfer(st *connState, payload []byte) bool {
	req, err := DecodeInfer(payload)
	if err != nil {
		return st.fail(err)
	}
	reqID := req.ReqID
	model, ok := s.cfg.Models[req.Model]
	if !ok {
		return st.writeError(reqID, CodeModelNotFound, "model "+req.Model+" not hosted")
	}
	sess, err := s.registry.Acquire(req.Session)
	if err != nil {
		return st.writeError(reqID, sessionErrCode(err, CodeInternal), "session "+req.Session+": "+err.Error())
	}
	// Admission control runs before the expensive input decode: a session
	// over its rate budget costs the server one frame read and a typed
	// reply, nothing more.
	if !sess.limiter.allow() {
		s.registry.Release(sess)
		s.metrics.RateLimited()
		return st.writeError(reqID, CodeBusy, "session rate limit exceeded")
	}
	in, err := sess.Eng.ReadEncryptedInput(model, bytes.NewReader(req.Input))
	if err != nil {
		s.registry.Release(sess)
		return st.writeError(reqID, CodeBadRequest, "input: "+err.Error())
	}
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = s.cfg.Clock.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}

	err = s.batcher.Submit(&Request{
		ID:       reqID,
		Sess:     sess,
		Model:    model,
		In:       in,
		Deadline: deadline,
		Done: func(out *core.EncryptedLogits, rerr error) {
			// The reply is encoded first and the pin dropped before it is
			// written: a client that has the reply may attach at once to
			// another session of this node, and must not find the cap
			// still held by this finished request.
			if rerr != nil {
				s.registry.Release(sess)
				var re *RequestError
				if errors.As(rerr, &re) {
					if re.Code == CodeDeadline {
						s.metrics.DeadlineExpired()
					} else {
						s.metrics.Failed()
					}
					st.writeError(reqID, re.Code, re.Msg)
				} else {
					s.metrics.Failed()
					st.writeError(reqID, CodeInternal, rerr.Error())
				}
				return
			}
			var buf bytes.Buffer
			werr := sess.Eng.WriteEncryptedLogits(out, &buf)
			s.registry.Release(sess)
			if werr != nil {
				s.metrics.Failed()
				st.writeError(reqID, CodeInternal, werr.Error())
				return
			}
			s.metrics.Completed()
			st.write(FrameResult, EncodeTagged(reqID, buf.Bytes()))
		},
	})
	if err != nil {
		s.registry.Release(sess)
		var re *RequestError
		if errors.As(err, &re) {
			if re.Code == CodeBusy {
				s.metrics.RejectedBusy()
			}
			// Backpressure is a per-request reply; the connection and its
			// session stay established.
			return st.writeError(reqID, re.Code, re.Msg)
		}
		return st.writeError(reqID, CodeBadRequest, err.Error())
	}
	s.metrics.Accepted()
	return true
}

// write sends one frame under the connection write lock and deadline.
// The frame is staged in the connection's reusable buffer and flushed
// with a single Write, so replies cost one syscall and no per-frame
// allocations.
func (st *connState) write(typ FrameType, payload []byte) bool {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if err := st.conn.SetWriteDeadline(time.Now().Add(st.s.cfg.WriteTimeout)); err != nil {
		return false
	}
	st.wbuf = AppendFrame(st.wbuf[:0], typ, payload)
	//lint:holdok wmu exists to serialize frame writes on this connection; the deadline-bounded write is the critical section
	_, err := st.conn.Write(st.wbuf)
	return err == nil
}

func (st *connState) writeError(reqID uint64, code ErrCode, msg string) bool {
	return st.write(FrameError, EncodeError(reqID, code, msg))
}

// fail answers a frame that cannot be tied to a request with the
// connection-level error (request ID 0) and reports the connection
// closed.
func (st *connState) fail(err error) bool {
	st.writeError(0, CodeBadRequest, err.Error())
	return false
}

// AdminHandler returns an http.Handler exposing GET /metrics as the
// JSON snapshot (for a sidecar admin listener).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Metrics()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
