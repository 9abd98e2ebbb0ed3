package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"athena/internal/serve"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Members is the cluster membership (required).
	Members *Membership

	// MaxFrame bounds one frame payload in both directions
	// (0 = serve.DefaultMaxFrame).
	MaxFrame uint32

	// DialTimeout bounds one backend TCP connect (0 = 10 s).
	DialTimeout time.Duration
	// CtrlTimeout bounds one backend session attach/upload round-trip —
	// a cold attach may rebuild an engine from disk (0 = 2 min).
	CtrlTimeout time.Duration
	// ReadTimeout bounds the wait for the next client frame
	// (0 = 10 min); WriteTimeout bounds one write (0 = 30 s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// MaxInflightPerBackend bounds requests outstanding on one backend
	// connection; beyond it new requests are answered with the typed
	// BUSY clients already back off on (0 = 256).
	MaxInflightPerBackend int
}

// RouterStats is the router's own counter block (it appears under
// "router" in the aggregated cluster metrics).
type RouterStats struct {
	Connections    uint64 `json:"connections"`
	SessionsRouted uint64 `json:"sessions_routed"`
	InfersRelayed  uint64 `json:"infers_relayed"`
	Redirects      uint64 `json:"redirects"`
	NeedKeys       uint64 `json:"need_keys"`
	Busy           uint64 `json:"busy"`
	BackendDials   uint64 `json:"backend_dials"`
	BackendErrors  uint64 `json:"backend_errors"`
}

// Router is the stateless ASV1 front tier: it owns no key material and
// no session state beyond live connection plumbing — placement is a
// pure function of membership, and every reply routes back by request
// ID. Clients speak the exact single-node protocol; the cluster is
// visible only through the typed REDIRECT/NEED_KEYS recovery frames.
type Router struct {
	cfg RouterConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	backends map[string]*backendConn // "node\x00session" → conn
	draining bool

	statsMu sync.Mutex
	stats   RouterStats

	connWG sync.WaitGroup
}

// NewRouter validates cfg and builds the router. Call Serve or
// ListenAndServe to accept clients.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Members == nil {
		return nil, fmt.Errorf("cluster: router needs a membership table")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = serve.DefaultMaxFrame
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.CtrlTimeout == 0 {
		cfg.CtrlTimeout = 2 * time.Minute
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.MaxInflightPerBackend == 0 {
		cfg.MaxInflightPerBackend = 256
	}
	return &Router{
		cfg:      cfg,
		conns:    map[net.Conn]struct{}{},
		backends: map[string]*backendConn{},
	}, nil
}

// Members returns the membership table the router routes by.
func (r *Router) Members() *Membership { return r.cfg.Members }

// Stats returns a copy of the router's counters.
func (r *Router) Stats() RouterStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

func (r *Router) count(f func(*RouterStats)) {
	r.statsMu.Lock()
	f(&r.stats)
	r.statsMu.Unlock()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (r *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(ln)
}

// Addr returns the bound listener address ("" before Serve).
func (r *Router) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Serve accepts client connections until Shutdown closes the listener.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("cluster: router already shut down")
	}
	r.ln = ln
	r.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			draining := r.draining
			r.mu.Unlock()
			if draining {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		// The Add shares the draining check's critical section: once
		// Shutdown has set draining, no handler can join the group its
		// Wait is counting down.
		r.mu.Lock()
		if r.draining {
			r.mu.Unlock()
			_ = conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.connWG.Add(1)
		r.mu.Unlock()
		r.count(func(s *RouterStats) { s.Connections++ })
		go r.handleConn(conn)
	}
}

// Shutdown stops accepting, closes every client and backend
// connection, and waits for the connection handlers. In-flight
// requests are answered by their owning nodes to the extent the closed
// relay allows; routers are stateless, so clients recover by
// reconnecting to another router.
func (r *Router) Shutdown() {
	r.mu.Lock()
	already := r.draining
	r.draining = true
	ln := r.ln
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	backends := make([]*backendConn, 0, len(r.backends))
	for _, bc := range r.backends {
		backends = append(backends, bc)
	}
	r.mu.Unlock()
	if already {
		return
	}
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	for _, bc := range backends {
		bc.close()
	}
	r.connWG.Wait()
}

// clientConn is the per-client-connection state: which session the
// connection attached and which node that session was routed to.
type clientConn struct {
	r    *Router
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // reusable frame staging, guarded by wmu

	// session and owner are only touched from this connection's read
	// loop (attach updates them, infer reads them).
	session string
	owner   string // node name the session was last routed to
}

func (r *Router) handleConn(c net.Conn) {
	defer r.connWG.Done()
	cc := &clientConn{r: r, conn: c}
	defer func() {
		_ = c.Close()
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
	}()

	var arena []byte
	for {
		if err := c.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout)); err != nil {
			return
		}
		typ, payload, err := serve.ReadFrameInto(c, &arena, r.cfg.MaxFrame)
		if err != nil {
			return // io error, timeout, or clean EOF: drop the connection
		}
		if !r.dispatch(cc, typ, payload) {
			return
		}
	}
}

// dispatch handles one client frame; false closes the connection.
func (r *Router) dispatch(cc *clientConn, typ serve.FrameType, payload []byte) bool {
	switch typ {
	case serve.FrameSessionNew:
		return r.handleSessionNew(cc, payload)
	case serve.FrameSessionAttach:
		return r.handleSessionAttach(cc, payload)
	case serve.FrameInfer:
		return r.handleInfer(cc, payload)
	case serve.FrameStats:
		doc, err := r.aggregateStatsJSON()
		if err != nil {
			return cc.writeError(0, serve.CodeInternal, err.Error())
		}
		return cc.write(serve.FrameStatsReply, doc)
	default:
		return cc.writeError(0, serve.CodeBadRequest, fmt.Sprintf("unexpected frame type %d", typ))
	}
}

// handleSessionNew routes a key upload to the owner of its content
// address. If a live backend connection for (owner, session) already
// exists the session is known to be resident there and the upload is
// acked without shipping the blob again — content addressing makes
// that sound: identical bytes, identical session.
func (r *Router) handleSessionNew(cc *clientConn, blob []byte) bool {
	id := serve.SessionID(blob)
	owner, ok := r.cfg.Members.Owner(id)
	if !ok {
		return cc.writeError(0, serve.CodeUnavailable, "no active nodes")
	}
	bc, err := r.backend(owner, id, blob)
	if err != nil {
		return cc.relayRouteError(0, err)
	}
	cc.session, cc.owner = id, bc.node
	r.count(func(s *RouterStats) { s.SessionsRouted++ })
	return cc.write(serve.FrameSessionOK, serve.EncodeSessionID(id))
}

// handleSessionAttach routes an attach to the session's owner. The
// owner resolves it through both of its tiers (RAM, then its durable
// store — the cold re-attach path); if neither holds the keys the
// client is asked to re-upload with the typed NEED_KEYS.
func (r *Router) handleSessionAttach(cc *clientConn, payload []byte) bool {
	id, err := serve.DecodeSessionID(payload)
	if err != nil {
		return cc.writeError(0, serve.CodeBadRequest, err.Error())
	}
	owner, ok := r.cfg.Members.Owner(id)
	if !ok {
		return cc.writeError(0, serve.CodeUnavailable, "no active nodes")
	}
	bc, err := r.backend(owner, id, nil)
	if err != nil {
		return cc.relayRouteError(0, err)
	}
	cc.session, cc.owner = id, bc.node
	r.count(func(s *RouterStats) { s.SessionsRouted++ })
	return cc.write(serve.FrameSessionOK, serve.EncodeSessionID(id))
}

// handleInfer relays one inference request to the owning node,
// rewriting the request ID into the backend connection's ID space so
// replies demultiplex back to the right client.
func (r *Router) handleInfer(cc *clientConn, payload []byte) bool {
	req, err := serve.DecodeInfer(payload)
	if err != nil {
		return cc.writeError(0, serve.CodeBadRequest, err.Error())
	}
	if cc.session == "" {
		return cc.writeError(req.ReqID, serve.CodeNoSession, "open or attach a session before inference")
	}
	owner, ok := r.cfg.Members.Owner(cc.session)
	if !ok {
		return cc.writeError(req.ReqID, serve.CodeUnavailable, "no active nodes")
	}
	if owner.Name != cc.owner {
		// Ownership moved (join/drain/leave) since this connection
		// attached: tell the client to re-attach. The router answers
		// immediately instead of silently re-homing an in-flight request
		// — the new owner may need the client to re-upload keys, which
		// only the client can do.
		r.count(func(s *RouterStats) { s.Redirects++ })
		return cc.write(serve.FrameRedirect, serve.EncodeRedirect(req.ReqID, owner.Addr, cc.session))
	}
	bc, err := r.backend(owner, cc.session, nil)
	if err != nil {
		return cc.relayRouteError(req.ReqID, err)
	}
	routerID, err := bc.register(cc, req.ReqID, r.cfg.MaxInflightPerBackend)
	if err != nil {
		r.count(func(s *RouterStats) { s.Busy++ })
		return cc.relayRouteError(req.ReqID, err)
	}
	// The request ID is the first 8 bytes of the payload; rewrite it in
	// place (the payload aliases this connection's read arena) and relay
	// the frame otherwise untouched.
	binary.LittleEndian.PutUint64(payload[:8], routerID)
	if err := bc.write(serve.FrameInfer, payload); err != nil {
		bc.take(routerID)
		r.failBackend(bc, err)
		return cc.writeError(req.ReqID, serve.CodeUnavailable, "owner write failed: "+err.Error())
	}
	r.count(func(s *RouterStats) { s.InfersRelayed++ })
	return true
}

// relayRouteError answers a routing failure with its typed form:
// backend-reported codes pass through, errNeedKeys becomes NEED_KEYS,
// anything else is UNAVAILABLE (transient, retry after backoff).
func (cc *clientConn) relayRouteError(reqID uint64, err error) bool {
	if errors.Is(err, errNeedKeys) {
		cc.r.count(func(s *RouterStats) { s.NeedKeys++ })
		return cc.writeError(reqID, serve.CodeNeedKeys, "session keys not resident on owner; re-upload")
	}
	var re *serve.RequestError
	if errors.As(err, &re) {
		return cc.writeError(reqID, re.Code, re.Msg)
	}
	return cc.writeError(reqID, serve.CodeUnavailable, err.Error())
}

// write sends one frame under the connection write lock and deadline.
func (cc *clientConn) write(typ serve.FrameType, payload []byte) bool {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if err := cc.conn.SetWriteDeadline(time.Now().Add(cc.r.cfg.WriteTimeout)); err != nil {
		return false
	}
	cc.wbuf = serve.AppendFrame(cc.wbuf[:0], typ, payload)
	//lint:holdok wmu exists to serialize frame writes on this connection; the deadline-bounded write is the critical section
	_, err := cc.conn.Write(cc.wbuf)
	return err == nil
}

func (cc *clientConn) writeError(reqID uint64, code serve.ErrCode, msg string) bool {
	return cc.write(serve.FrameError, serve.EncodeError(reqID, code, msg))
}

// errNeedKeys marks an attach that failed because the owning node holds
// no copy of the session's keys; the caller translates it to the typed
// NEED_KEYS reply.
var errNeedKeys = errors.New("cluster: owner needs key re-upload")

// errBusy marks a backend connection at its in-flight cap.
var errBusy = &serve.RequestError{Code: serve.CodeBusy, Msg: "router backend at in-flight cap"}

// backendConn is one multiplexed connection to (node, session): every
// client attached to that session through this router shares it, and
// replies route back by the rewritten request ID — the same demux
// pattern the Go client uses, inverted.
type backendConn struct {
	key     string
	node    string // node name
	addr    string
	session string

	// ready closes when init (dial + attach/upload) finishes; initErr
	// is valid afterwards.
	ready   chan struct{}
	initErr error
	conn    net.Conn

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]pendingRoute
	dead    bool
}

type pendingRoute struct {
	cc       *clientConn
	clientID uint64
}

func backendKey(node, session string) string { return node + "\x00" + session }

// backend returns a ready backend connection for (owner, session),
// creating and initializing one if needed. With blob set (a session
// upload) a missing session is created by shipping the blob; with blob
// nil a missing session surfaces as errNeedKeys. The first caller for
// a key performs the init; concurrent callers wait on it.
func (r *Router) backend(owner Node, session string, blob []byte) (*backendConn, error) {
	for {
		key := backendKey(owner.Name, session)
		r.mu.Lock()
		if r.draining {
			r.mu.Unlock()
			return nil, &serve.RequestError{Code: serve.CodeDraining, Msg: "router shutting down"}
		}
		bc, ok := r.backends[key]
		if !ok {
			bc = &backendConn{
				key: key, node: owner.Name, addr: owner.Addr, session: session,
				ready:   make(chan struct{}),
				pending: map[uint64]pendingRoute{},
			}
			r.backends[key] = bc
			r.mu.Unlock()
			r.initBackend(bc, blob)
			if bc.initErr != nil {
				return nil, bc.initErr
			}
			return bc, nil
		}
		r.mu.Unlock()
		<-bc.ready
		if bc.initErr != nil {
			// The creator already removed the failed entry; retry so this
			// caller's own init (and its blob, if any) gets a chance.
			continue
		}
		bc.mu.Lock()
		dead := bc.dead
		bc.mu.Unlock()
		if dead {
			r.removeBackend(bc)
			continue
		}
		return bc, nil
	}
}

// initBackend dials the node and establishes the session on the new
// connection: attach first (the cheap path — the node resolves it from
// RAM or cold-loads from its durable store); on SESSION_NOT_FOUND fall
// back to uploading the blob when the caller has one, else report
// errNeedKeys. On success the reply demux loop starts.
func (r *Router) initBackend(bc *backendConn, blob []byte) {
	defer close(bc.ready)
	fail := func(err error) {
		bc.initErr = err
		if bc.conn != nil {
			_ = bc.conn.Close()
		}
		r.removeBackend(bc)
	}
	r.count(func(s *RouterStats) { s.BackendDials++ })
	conn, err := net.DialTimeout("tcp", bc.addr, r.cfg.DialTimeout)
	if err != nil {
		fail(fmt.Errorf("cluster: dialing node %s (%s): %w", bc.node, bc.addr, err))
		return
	}
	bc.conn = conn

	typ, reply, err := bc.ctrl(serve.FrameSessionAttach, serve.EncodeSessionID(bc.session), r.cfg)
	if err != nil {
		fail(err)
		return
	}
	if typ == serve.FrameError {
		_, code, msg, derr := serve.DecodeError(reply)
		if derr != nil {
			fail(fmt.Errorf("cluster: node %s: undecodable error reply: %w", bc.node, derr))
			return
		}
		if code != serve.CodeSessionNotFound {
			fail(&serve.RequestError{Code: code, Msg: msg})
			return
		}
		if blob == nil {
			fail(errNeedKeys)
			return
		}
		// Re-upload-on-miss: ship the client's bundle to the new owner.
		typ, reply, err = bc.ctrl(serve.FrameSessionNew, blob, r.cfg)
		if err != nil {
			fail(err)
			return
		}
		if typ == serve.FrameError {
			_, code, msg, derr := serve.DecodeError(reply)
			if derr != nil {
				fail(fmt.Errorf("cluster: node %s: undecodable error reply: %w", bc.node, derr))
				return
			}
			fail(&serve.RequestError{Code: code, Msg: msg})
			return
		}
	}
	if typ != serve.FrameSessionOK {
		fail(fmt.Errorf("cluster: node %s: unexpected frame %d during session setup", bc.node, typ))
		return
	}
	// As in Serve: join the group only under the lock that sees draining.
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		fail(&serve.RequestError{Code: serve.CodeDraining, Msg: "router shutting down"})
		return
	}
	r.connWG.Add(1)
	r.mu.Unlock()
	go r.backendReadLoop(bc)
}

// ctrl performs one synchronous round-trip during init (the demux loop
// is not running yet, so reading inline is race-free).
func (bc *backendConn) ctrl(typ serve.FrameType, payload []byte, cfg RouterConfig) (serve.FrameType, []byte, error) {
	if err := bc.conn.SetDeadline(time.Now().Add(cfg.CtrlTimeout)); err != nil {
		return 0, nil, err
	}
	if err := bc.write(typ, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: node %s: %w", bc.node, err)
	}
	rtyp, reply, err := serve.ReadFrame(bc.conn, cfg.MaxFrame)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: node %s: %w", bc.node, err)
	}
	// Clear the control deadline: steady-state replies arrive whenever
	// batches complete.
	if err := bc.conn.SetDeadline(time.Time{}); err != nil {
		return 0, nil, err
	}
	return rtyp, reply, nil
}

// backendReadLoop demultiplexes node replies back to their client
// connections, rewriting the router-assigned request ID to the
// client's own.
func (r *Router) backendReadLoop(bc *backendConn) {
	defer r.connWG.Done()
	var arena []byte
	for {
		typ, payload, err := serve.ReadFrameInto(bc.conn, &arena, r.cfg.MaxFrame)
		if err != nil {
			r.failBackend(bc, err)
			return
		}
		switch typ {
		case serve.FrameResult, serve.FrameError:
			if len(payload) < 8 {
				r.failBackend(bc, fmt.Errorf("cluster: node %s: truncated reply", bc.node))
				return
			}
			id := binary.LittleEndian.Uint64(payload[:8])
			if id == 0 && typ == serve.FrameError {
				// Connection-level error from the node: nothing to route it
				// to; the connection is no longer trustworthy.
				r.failBackend(bc, fmt.Errorf("cluster: node %s reported a connection error", bc.node))
				return
			}
			rt, ok := bc.take(id)
			if !ok {
				continue // stale reply for a request we already failed
			}
			binary.LittleEndian.PutUint64(payload[:8], rt.clientID)
			rt.cc.write(typ, payload)
		default:
			r.failBackend(bc, fmt.Errorf("cluster: node %s: unexpected frame type %d", bc.node, typ))
			return
		}
	}
}

// register assigns a router-side request ID and records the return
// route, enforcing the in-flight cap.
func (bc *backendConn) register(cc *clientConn, clientID uint64, maxInflight int) (uint64, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.dead {
		return 0, &serve.RequestError{Code: serve.CodeUnavailable, Msg: "owner connection lost"}
	}
	if len(bc.pending) >= maxInflight {
		return 0, errBusy
	}
	bc.nextID++
	id := bc.nextID
	bc.pending[id] = pendingRoute{cc: cc, clientID: clientID}
	return id, nil
}

// take removes and returns the route for id.
func (bc *backendConn) take(id uint64) (pendingRoute, bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	rt, ok := bc.pending[id]
	if ok {
		delete(bc.pending, id)
	}
	return rt, ok
}

// write sends one frame to the node under the backend write lock.
func (bc *backendConn) write(typ serve.FrameType, payload []byte) error {
	bc.wmu.Lock()
	defer bc.wmu.Unlock()
	bc.wbuf = serve.AppendFrame(bc.wbuf[:0], typ, payload)
	//lint:holdok wmu exists to serialize frame writes on the shared backend connection; the write is the critical section
	_, err := bc.conn.Write(bc.wbuf)
	return err
}

// close tears the connection down without failing pendings individually
// (used on router shutdown, when the client conns are closing too).
func (bc *backendConn) close() {
	bc.mu.Lock()
	bc.dead = true
	bc.mu.Unlock()
	if bc.conn != nil {
		_ = bc.conn.Close()
	}
}

// failBackend marks the connection dead, removes it from the pool, and
// answers every pending request with the typed UNAVAILABLE so no
// client hangs on a reply that will never come.
func (r *Router) failBackend(bc *backendConn, cause error) {
	bc.mu.Lock()
	if bc.dead {
		bc.mu.Unlock()
		return
	}
	bc.dead = true
	pending := bc.pending
	bc.pending = map[uint64]pendingRoute{}
	bc.mu.Unlock()

	_ = bc.conn.Close()
	r.removeBackend(bc)
	r.count(func(s *RouterStats) { s.BackendErrors++ })
	for _, rt := range pending {
		rt.cc.writeError(rt.clientID, serve.CodeUnavailable,
			fmt.Sprintf("owner %s connection lost: %v", bc.node, cause))
	}
}

// removeBackend drops bc from the pool if it is still the registered
// entry for its key.
func (r *Router) removeBackend(bc *backendConn) {
	r.mu.Lock()
	if cur, ok := r.backends[bc.key]; ok && cur == bc {
		delete(r.backends, bc.key)
	}
	r.mu.Unlock()
}
