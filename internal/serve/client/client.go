// Package client is the Go client for the athena-serve frame protocol.
//
// A Client owns one TCP connection and demultiplexes replies by request
// ID, so any number of goroutines may call Infer concurrently — exactly
// the access pattern the server's dynamic batcher coalesces into shared
// functional-bootstrapping rounds. Key material stays client-side: the
// engine's secret key never leaves the process; OpenSession uploads
// only the public evaluation bundle (core.WriteEvalKeys), and the
// returned session ID can be reused by later connections via Attach.
// Uploads, attaches, inferences and stats are all request/reply calls
// over the same pending-request table.
package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

// Options tunes a connection.
type Options struct {
	// MaxFrame bounds one received frame (0 = serve.DefaultMaxFrame).
	MaxFrame uint32
	// DialTimeout bounds the TCP connect (0 = 10 s).
	DialTimeout time.Duration
}

// reply is one answer delivered to its waiting request: the frame type
// and whole payload, or the typed error an Error or Redirect frame
// carries.
type reply struct {
	typ     serve.FrameType
	payload []byte
	err     error
}

// ErrNoSession reports an inference on a connection that has neither
// opened nor attached a session.
var ErrNoSession = errors.New("client: no session: OpenSession or Attach first")

// Client is one connection to an athena-serve instance.
type Client struct {
	conn net.Conn
	opts Options

	eng *core.Engine // client-side engine: holds sk, enc, dec

	wmu    sync.Mutex     // frame writes
	readWG sync.WaitGroup // readLoop lifetime; Close waits for it

	mu        sync.Mutex
	nextID    uint64
	pending   map[uint64]chan reply
	readErr   error
	sessionID string
}

// Dial connects to an athena-serve address. eng must be a full client
// engine (it encrypts inputs and decrypts results locally).
func Dial(addr string, eng *core.Engine, opts Options) (*Client, error) {
	if eng == nil {
		return nil, fmt.Errorf("client: nil engine")
	}
	if opts.MaxFrame == 0 {
		opts.MaxFrame = serve.DefaultMaxFrame
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		opts:    opts,
		eng:     eng,
		pending: make(map[uint64]chan reply),
	}
	c.readWG.Add(1)
	go c.readLoop()
	return c, nil
}

// Close drops the connection (pending calls fail) and waits for the
// read loop to exit, so a closed client leaves no goroutine behind.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.readWG.Wait()
	return err
}

// Err returns the error that poisoned the connection (nil while
// healthy). A poisoned client fails every call; reconnect to recover.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// SessionID returns the attached session's ID ("" before OpenSession or
// Attach succeeds).
func (c *Client) SessionID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// readLoop hands each reply to the request its ID names. A reply with
// ID 0 is a connection-level error and poisons the connection.
func (c *Client) readLoop() {
	defer c.readWG.Done()
	for {
		typ, payload, err := serve.ReadFrame(c.conn, c.opts.MaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		id, r, err := decodeReply(typ, payload)
		if err == nil && id == 0 {
			err = fmt.Errorf("client: connection-level error: %v", r.err)
			_ = c.conn.Close() // a later Close then reports the double close
		}
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- r
		}
	}
}

// decodeReply reads a reply's request ID and, for Error and Redirect
// frames, the typed error it carries.
func decodeReply(typ serve.FrameType, payload []byte) (uint64, reply, error) {
	r := reply{typ: typ, payload: payload}
	switch typ {
	case serve.FrameSessionOK, serve.FrameStatsReply, serve.FrameResult:
		id, _, err := serve.DecodeTagged(payload)
		return id, r, err
	case serve.FrameRedirect:
		id, addr, session, err := serve.DecodeRedirect(payload)
		r.err = &serve.RedirectError{Addr: addr, Session: session}
		return id, r, err
	case serve.FrameError:
		id, code, msg, err := serve.DecodeError(payload)
		r.err = &serve.RequestError{Code: code, Msg: msg}
		return id, r, err
	}
	return 0, r, fmt.Errorf("client: unexpected frame type %d", typ)
}

// fail poisons the client: every pending and future call errors.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	chans := c.pending
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
	for _, ch := range chans {
		ch <- reply{err: err}
	}
}

// roundTrip sends one request and waits for its reply, which must be of
// type want. The payload is the parts in order; the first 8 bytes of the
// first are the request ID, which roundTrip assigns.
func (c *Client) roundTrip(typ, want serve.FrameType, payload ...[]byte) ([]byte, error) {
	ch := make(chan reply, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	binary.LittleEndian.PutUint64(payload[0], id)
	c.wmu.Lock()
	//lint:holdok wmu exists to serialize frame writes on the shared connection; the write is the critical section
	err := serve.WriteFrame(c.conn, typ, payload...)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	r := <-ch
	if r.err != nil {
		return nil, r.err
	}
	if r.typ != want {
		return nil, fmt.Errorf("client: frame type %d in reply to frame type %d", r.typ, typ)
	}
	return r.payload, nil
}

// OpenSession uploads the engine's evaluation keys and attaches to the
// resulting (content-addressed) session. Reuploading identical material
// — from this or any other connection — lands on the same session.
func (c *Client) OpenSession() (string, error) {
	var blob bytes.Buffer
	if err := c.eng.WriteEvalKeys(&blob); err != nil {
		return "", err
	}
	return c.session(serve.FrameSessionNew, serve.EncodeTagged(0, nil), blob.Bytes())
}

// Attach joins an existing session by ID. The server resolves it from
// RAM or from its durable store; a session in neither needs
// OpenSession again.
func (c *Client) Attach(id string) error {
	_, err := c.session(serve.FrameSessionAttach, serve.EncodeSessionID(0, id))
	return err
}

// session performs an upload or attach and makes its session the one
// this connection's inferences name.
func (c *Client) session(typ serve.FrameType, payload ...[]byte) (string, error) {
	reply, err := c.roundTrip(typ, serve.FrameSessionOK, payload...)
	if err != nil {
		return "", err
	}
	_, id, err := serve.DecodeSessionID(reply)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.sessionID = id
	c.mu.Unlock()
	return id, nil
}

// Infer encrypts x, submits it under the attached session, waits for
// the encrypted logits, and decrypts them. deadline 0 means no request
// deadline. Safe for concurrent use.
func (c *Client) Infer(model *qnn.QNetwork, x *qnn.IntTensor, deadline time.Duration) ([]int64, error) {
	in, err := c.eng.EncryptInput(model, x)
	if err != nil {
		return nil, err
	}
	out, err := c.InferEncrypted(model, in, deadline)
	if err != nil {
		return nil, err
	}
	return c.eng.DecryptLogits(out)
}

// InferEncrypted submits an already-encrypted input and returns the
// encrypted logits without decrypting (the transport-only path).
func (c *Client) InferEncrypted(model *qnn.QNetwork, in *core.EncryptedInput, deadline time.Duration) (*core.EncryptedLogits, error) {
	session := c.SessionID()
	if session == "" {
		return nil, ErrNoSession
	}
	var buf bytes.Buffer
	if err := c.eng.WriteEncryptedInput(in, &buf); err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(serve.FrameInfer, serve.FrameResult,
		serve.EncodeInfer(0, deadlineMS(deadline), session, model.Name, buf.Bytes()))
	if err != nil {
		return nil, err
	}
	_, logits, _ := serve.DecodeTagged(payload)
	return c.eng.ReadEncryptedLogits(model, bytes.NewReader(logits))
}

// deadlineMS is the wire form of a request deadline: whole
// milliseconds, at least 1 for a positive deadline, and clamped to the
// field's range (about 49.7 days) rather than wrapped.
func deadlineMS(d time.Duration) uint32 {
	switch ms := d / time.Millisecond; {
	case d <= 0:
		return 0
	case ms == 0:
		return 1
	case ms > math.MaxUint32:
		return math.MaxUint32
	default:
		return uint32(ms)
	}
}

// Stats fetches the server's metrics snapshot.
func (c *Client) Stats() (serve.Snapshot, error) {
	var s serve.Snapshot
	payload, err := c.roundTrip(serve.FrameStats, serve.FrameStatsReply, serve.EncodeTagged(0, nil))
	if err != nil {
		return s, err
	}
	_, doc, _ := serve.DecodeTagged(payload)
	err = json.Unmarshal(doc, &s)
	return s, err
}
