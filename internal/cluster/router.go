package cluster

import (
	"encoding/binary"
	"encoding/json"
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

	// DialTimeout bounds one node TCP connect and one node's stats fetch
	// (0 = 10 s).
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for the next client frame
	// (0 = 10 min); WriteTimeout bounds one write (0 = 30 s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// MaxInflightPerBackend bounds requests outstanding on one node
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
	Busy           uint64 `json:"busy"`
	BackendDials   uint64 `json:"backend_dials"`
	BackendErrors  uint64 `json:"backend_errors"`
}

// Router is the stateless ASV1 front tier: it owns no key material and
// no session state beyond live connection plumbing — placement is a
// pure function of membership, and every reply routes back by request
// ID. Clients speak the exact single-node protocol; the cluster is
// visible only through the typed REDIRECT and SESSION_NOT_FOUND
// recovery answers.
type Router struct {
	cfg RouterConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	backends map[string]*backendConn // node name → its one connection
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

// clientConn is the per-client-connection state.
type clientConn struct {
	r    *Router
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // reusable frame staging, guarded by wmu

	// routed maps each session this connection uploaded or attached to
	// the node it went through. Only the read loop touches it.
	routed map[string]string
}

func (r *Router) handleConn(c net.Conn) {
	defer r.connWG.Done()
	cc := &clientConn{r: r, conn: c, routed: map[string]string{}}
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

// dispatch handles one client frame; false closes the connection. A
// frame the router cannot decode is answered with the connection-level
// error (request ID 0).
func (r *Router) dispatch(cc *clientConn, typ serve.FrameType, payload []byte) bool {
	var session string
	var err error
	switch typ {
	case serve.FrameSessionNew:
		var blob []byte
		_, blob, err = serve.DecodeTagged(payload)
		session = serve.SessionID(blob)
	case serve.FrameSessionAttach:
		_, session, err = serve.DecodeSessionID(payload)
	case serve.FrameInfer:
		var req serve.InferRequestWire
		req, err = serve.DecodeInfer(payload)
		session = req.Session
	case serve.FrameStats:
		return r.handleStats(cc, payload)
	default:
		err = fmt.Errorf("unexpected frame type %d", typ)
	}
	if err != nil {
		cc.writeError(0, serve.CodeBadRequest, err.Error())
		return false
	}
	return r.relay(cc, typ, payload, session)
}

// handleStats answers with the aggregated cluster document.
func (r *Router) handleStats(cc *clientConn, payload []byte) bool {
	reqID, _, err := serve.DecodeTagged(payload)
	if err != nil {
		cc.writeError(0, serve.CodeBadRequest, err.Error())
		return false
	}
	rs := r.Stats()
	doc, err := json.Marshal(GatherClusterStats(r.cfg.Members, &rs, r.cfg.DialTimeout))
	if err != nil {
		return cc.writeError(reqID, serve.CodeInternal, err.Error())
	}
	return cc.write(serve.FrameStatsReply, serve.EncodeTagged(reqID, doc))
}

// relay forwards an upload, attach or inference to the owner of the
// session it names: rewrite the request ID into the node connection's
// ID space, register the return route, write. The node resolves the
// session itself (RAM, then its durable store) and dedups uploads by
// content address; replies come back through backendReadLoop.
func (r *Router) relay(cc *clientConn, typ serve.FrameType, payload []byte, session string) bool {
	clientID := binary.LittleEndian.Uint64(payload[:8])
	owner, ok := r.cfg.Members.Owner(session)
	if !ok {
		return cc.writeError(clientID, serve.CodeUnavailable, "no active nodes")
	}
	if typ != serve.FrameInfer {
		cc.routed[session] = owner.Name
	} else if via, ok := cc.routed[session]; ok && via != owner.Name {
		// Ownership moved (join/drain/leave) since this connection
		// attached: tell the client to re-attach. The router answers
		// immediately instead of silently re-homing the request — the
		// new owner may need the client to re-upload keys, which only
		// the client can do.
		r.count(func(s *RouterStats) { s.Redirects++ })
		return cc.write(serve.FrameRedirect, serve.EncodeRedirect(clientID, owner.Addr, session))
	}
	bc, err := r.backend(owner)
	if err != nil {
		return cc.relayError(clientID, err)
	}
	routerID, err := bc.register(cc, clientID, r.cfg.MaxInflightPerBackend)
	if err != nil {
		if errors.Is(err, errBusy) {
			r.count(func(s *RouterStats) { s.Busy++ })
		}
		return cc.relayError(clientID, err)
	}
	// Counted before the write, so the owner's reply never overtakes it.
	r.count(func(s *RouterStats) {
		if typ == serve.FrameInfer {
			s.InfersRelayed++
		} else {
			s.SessionsRouted++
		}
	})
	// The payload aliases the read arena: rewrite the ID in place, relay the rest.
	binary.LittleEndian.PutUint64(payload[:8], routerID)
	if err := bc.write(typ, payload); err != nil {
		bc.take(routerID)
		r.failBackend(bc, err)
		return cc.writeError(clientID, serve.CodeUnavailable, "owner write failed: "+err.Error())
	}
	return true
}

// relayError answers a routing failure with its typed form: typed
// errors pass through, anything else is UNAVAILABLE (transient, retry
// after backoff).
func (cc *clientConn) relayError(reqID uint64, err error) bool {
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

var (
	// errBusy marks a node connection at its in-flight cap.
	errBusy     = &serve.RequestError{Code: serve.CodeBusy, Msg: "router backend at in-flight cap"}
	errDraining = &serve.RequestError{Code: serve.CodeDraining, Msg: "router shutting down"}
)

// backendConn is the router's one multiplexed connection to a node:
// every client and every session routed there shares it, and replies
// route back by the rewritten request ID — the same demux pattern the
// Go client uses, inverted.
type backendConn struct {
	node string

	// ready closes when the dial finishes; err is valid afterwards.
	ready chan struct{}
	err   error

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	conn    net.Conn // set once the dial succeeds
	nextID  uint64
	pending map[uint64]pendingRoute
	dead    bool
}

type pendingRoute struct {
	cc       *clientConn
	clientID uint64
}

// backend returns the connection to owner, dialing it if the router has
// none. Concurrent callers wait on the first caller's dial.
func (r *Router) backend(owner Node) (*backendConn, error) {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, errDraining
	}
	bc, ok := r.backends[owner.Name]
	if !ok {
		bc = &backendConn{node: owner.Name, ready: make(chan struct{}), pending: map[uint64]pendingRoute{}}
		r.backends[owner.Name] = bc
		// As in Serve: join the group under the lock that sees draining.
		r.connWG.Add(1)
		r.mu.Unlock()
		r.backendDial(bc, owner.Addr)
	} else {
		r.mu.Unlock()
		<-bc.ready
	}
	if bc.err != nil {
		return nil, bc.err
	}
	return bc, nil
}

// backendDial connects bc and starts its read loop. A failed dial
// leaves the pool, so the next request dials again.
func (r *Router) backendDial(bc *backendConn, addr string) {
	defer close(bc.ready)
	r.count(func(s *RouterStats) { s.BackendDials++ })
	conn, err := net.DialTimeout("tcp", addr, r.cfg.DialTimeout)
	if err != nil {
		err = fmt.Errorf("cluster: dialing node %s (%s): %w", bc.node, addr, err)
	}
	bc.mu.Lock()
	switch {
	case err == nil && bc.dead: // Shutdown closed it mid-dial
		_ = conn.Close()
		err = errDraining
	case err == nil:
		bc.conn = conn
	default:
		bc.dead = true
	}
	bc.mu.Unlock()
	if err != nil {
		bc.err = err
		r.removeBackend(bc)
		r.connWG.Done()
		return
	}
	go r.backendReadLoop(bc)
}

// backendReadLoop demultiplexes node replies back to their client
// connections, rewriting the router-assigned request ID to the
// client's own. A client that does not take its reply within
// WriteTimeout holds up every session on this node connection that
// long, so its connection is closed.
func (r *Router) backendReadLoop(bc *backendConn) {
	defer r.connWG.Done()
	var arena []byte
	for {
		typ, payload, err := serve.ReadFrameInto(bc.conn, &arena, r.cfg.MaxFrame)
		if err != nil {
			r.failBackend(bc, err)
			return
		}
		id, _, err := serve.DecodeTagged(payload)
		switch {
		case err != nil:
		case typ != serve.FrameResult && typ != serve.FrameError && typ != serve.FrameSessionOK:
			err = fmt.Errorf("unexpected frame type %d", typ)
		case id == 0:
			// A connection-level error from the node: nothing to route it
			// to, and the connection is no longer trustworthy.
			err = errors.New("connection-level error")
		}
		if err != nil {
			r.failBackend(bc, fmt.Errorf("cluster: node %s: %w", bc.node, err))
			return
		}
		rt, ok := bc.take(id)
		if !ok {
			continue // stale reply for a request we already failed
		}
		binary.LittleEndian.PutUint64(payload[:8], rt.clientID)
		if !rt.cc.write(typ, payload) {
			_ = rt.cc.conn.Close()
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
	conn := bc.conn
	bc.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
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

// removeBackend drops bc from the pool if it is still the entry for its
// node.
func (r *Router) removeBackend(bc *backendConn) {
	r.mu.Lock()
	if r.backends[bc.node] == bc {
		delete(r.backends, bc.node)
	}
	r.mu.Unlock()
}
