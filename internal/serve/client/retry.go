package client

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

// ReliableOptions tunes the retrying client wrapper.
type ReliableOptions struct {
	Options

	// MaxAttempts bounds one logical call's tries (0 = 8). Only whole
	// request attempts count; the session repair inside an attempt does
	// not.
	MaxAttempts int
	// BaseBackoff is the first retry delay (0 = 50 ms); it doubles per
	// attempt up to MaxBackoff (0 = 2 s), each delay jittered to
	// 50–150 % so retrying clients do not stampede in phase.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Sleep and Rand are injectable for deterministic tests
	// (time.Sleep and math/rand/v2 by default).
	Sleep func(time.Duration)
	Rand  func() float64
}

// Reliable wraps the single-connection Client with bounded retry: it
// reconnects through transient dial/write failures, backs off on the
// typed BUSY/DRAINING/UNAVAILABLE rejections, re-attaches on REDIRECT
// (the router's session-moved signal), and re-uploads the engine's
// evaluation keys on SESSION_NOT_FOUND — so a membership change under
// live traffic costs latency, not failures. Safe for concurrent use.
type Reliable struct {
	addr string
	eng  *core.Engine
	opts ReliableOptions

	mu      sync.Mutex
	c       *Client
	session string // established session ID ("" before OpenSession)

	// Counters for tests and reporting (guarded by mu).
	retries    uint64
	reconnects uint64
	reattaches uint64
	reuploads  uint64
}

// DialReliable connects to addr with retry. eng must be a full client
// engine (it encrypts, decrypts, and re-uploads keys on demand).
func DialReliable(addr string, eng *core.Engine, opts ReliableOptions) (*Reliable, error) {
	if eng == nil {
		return nil, fmt.Errorf("client: nil engine")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	rc := &Reliable{addr: addr, eng: eng, opts: opts}
	var lastErr error
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.backoff(attempt)
		}
		c, err := Dial(addr, eng, opts.Options)
		if err == nil {
			rc.c = c
			return rc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: dialing %s: giving up after %d attempts: %w", addr, opts.MaxAttempts, lastErr)
}

// Close drops the current connection.
func (rc *Reliable) Close() error {
	rc.mu.Lock()
	c := rc.c
	rc.c = nil
	rc.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

// SessionID returns the established session ID ("" before OpenSession).
func (rc *Reliable) SessionID() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.session
}

// Counters reports the recovery work performed so far.
func (rc *Reliable) Counters() (retries, reconnects, reattaches, reuploads uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.retries, rc.reconnects, rc.reattaches, rc.reuploads
}

// OpenSession uploads the engine's evaluation keys, with retry.
func (rc *Reliable) OpenSession() (string, error) {
	var lastErr error
	for attempt := 0; attempt < rc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.noteRetry()
			rc.backoff(attempt)
		}
		c, err := rc.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		id, err := c.OpenSession()
		if err == nil {
			rc.mu.Lock()
			rc.session = id
			rc.mu.Unlock()
			return id, nil
		}
		lastErr = err
		if permanent(err) {
			return "", err
		}
		rc.dropIfBroken(c)
	}
	return "", fmt.Errorf("client: open session: giving up after %d attempts: %w", rc.opts.MaxAttempts, lastErr)
}

// Attach joins an existing session by ID, with retry. A
// SESSION_NOT_FOUND answer re-uploads this engine's keys — valid only
// when id is the engine's own content address (the upload must land on
// the same session; a mismatch is a permanent error).
func (rc *Reliable) Attach(id string) error {
	var lastErr error
	for attempt := 0; attempt < rc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.noteRetry()
			rc.backoff(attempt)
		}
		c, err := rc.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		err = c.Attach(id)
		if err == nil {
			rc.mu.Lock()
			rc.session = id
			rc.mu.Unlock()
			return nil
		}
		lastErr = err
		if needsKeys(err) {
			got, uerr := c.OpenSession()
			if uerr == nil && got != id {
				return fmt.Errorf("client: attach %s: engine keys address session %s — cannot repair by re-upload", id, got)
			}
			if uerr == nil {
				rc.mu.Lock()
				rc.session = id
				rc.reuploads++
				rc.mu.Unlock()
				return nil
			}
			lastErr = uerr
			if permanent(uerr) {
				return uerr
			}
		} else if permanent(err) {
			return err
		}
		rc.dropIfBroken(c)
	}
	return fmt.Errorf("client: attach: giving up after %d attempts: %w", rc.opts.MaxAttempts, lastErr)
}

// Infer encrypts x, submits it, and decrypts the logits, recovering
// from transient failures: reconnects, redirects, key re-uploads, and
// backpressure all retry within the attempt budget. Note encryption
// consumes the engine's PRNG stream — concurrent Infer calls sharing
// one engine should pre-encrypt serially and use InferEncrypted.
func (rc *Reliable) Infer(model *qnn.QNetwork, x *qnn.IntTensor, deadline time.Duration) ([]int64, error) {
	in, err := rc.eng.EncryptInput(model, x)
	if err != nil {
		return nil, err
	}
	out, err := rc.InferEncrypted(model, in, deadline)
	if err != nil {
		return nil, err
	}
	return rc.eng.DecryptLogits(out)
}

// InferEncrypted submits an already-encrypted input with the same
// retry policy as Infer, returning the encrypted logits undecrypted.
// The encrypted bytes are identical across attempts, so a retried
// request is exactly the original — safe to replay.
func (rc *Reliable) InferEncrypted(model *qnn.QNetwork, in *core.EncryptedInput, deadline time.Duration) (*core.EncryptedLogits, error) {
	var lastErr error
	for attempt := 0; attempt < rc.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.noteRetry()
			rc.backoff(attempt)
		}
		c, err := rc.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		out, err := c.InferEncrypted(model, in, deadline)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if permanent(err) {
			return nil, err
		}
		if err := rc.repair(c, err); err != nil {
			if permanent(err) {
				return nil, err
			}
			lastErr = err
		}
	}
	return nil, fmt.Errorf("client: infer: giving up after %d attempts: %w", rc.opts.MaxAttempts, lastErr)
}

// repair performs the recovery a classified failure asks for, so the
// next attempt can succeed. Returned errors are from the repair itself.
func (rc *Reliable) repair(c *Client, err error) error {
	var redir *serve.RedirectError
	switch {
	case errors.As(err, &redir):
		// Session moved: re-attach through the same connection (the
		// router recomputes the owner) and let SESSION_NOT_FOUND fall
		// through to a key re-upload.
		rc.mu.Lock()
		rc.reattaches++
		session := rc.session
		rc.mu.Unlock()
		if session == "" {
			session = redir.Session
		}
		aerr := c.Attach(session)
		if aerr != nil && needsKeys(aerr) {
			return rc.reupload(c, session)
		}
		return aerr
	case needsKeys(err):
		rc.mu.Lock()
		session := rc.session
		rc.mu.Unlock()
		return rc.reupload(c, session)
	case backsOff(err):
		return nil // server-side pressure: the attempt loop's backoff is the repair
	default:
		// Connection-level trouble: drop it; ensureConn redials and
		// re-establishes the session next attempt.
		rc.dropIfBroken(c)
		return nil
	}
}

// reupload ships the engine's keys again (the SESSION_NOT_FOUND
// recovery).
func (rc *Reliable) reupload(c *Client, session string) error {
	got, err := c.OpenSession()
	if err != nil {
		if !permanent(err) {
			rc.dropIfBroken(c)
		}
		return err
	}
	if session != "" && got != session {
		return fmt.Errorf("client: re-upload landed on session %s, expected %s", got, session)
	}
	rc.mu.Lock()
	rc.session = got
	rc.reuploads++
	rc.mu.Unlock()
	return nil
}

// ensureConn returns a healthy connection, redialing and re-attaching
// the established session after a failure.
func (rc *Reliable) ensureConn() (*Client, error) {
	rc.mu.Lock()
	c := rc.c
	session := rc.session
	rc.mu.Unlock()
	if c != nil && c.Err() == nil {
		return c, nil
	}
	rc.mu.Lock()
	if rc.c != nil && rc.c.Err() == nil { // someone else already redialed
		c := rc.c
		rc.mu.Unlock()
		return c, nil
	}
	if rc.c != nil {
		//lint:holdok the connection is poisoned, so its read loop has already exited and Close's wait returns at once
		_ = rc.c.Close()
		rc.c = nil
	}
	rc.mu.Unlock()

	nc, err := Dial(rc.addr, rc.eng, rc.opts.Options)
	if err != nil {
		return nil, err
	}
	if session != "" {
		if aerr := nc.Attach(session); aerr != nil {
			if needsKeys(aerr) {
				if rerr := rc.reupload(nc, session); rerr != nil {
					_ = nc.Close()
					return nil, rerr
				}
			} else {
				_ = nc.Close()
				return nil, aerr
			}
		}
	}
	rc.mu.Lock()
	if rc.c != nil && rc.c.Err() == nil {
		// Lost a redial race; use the winner.
		c := rc.c
		rc.mu.Unlock()
		_ = nc.Close()
		return c, nil
	}
	rc.c = nc
	rc.reconnects++
	rc.mu.Unlock()
	return nc, nil
}

// dropIfBroken closes and forgets the connection if it is poisoned, so
// ensureConn redials. A healthy connection (the error was per-request)
// is kept.
func (rc *Reliable) dropIfBroken(c *Client) {
	if c.Err() == nil {
		return
	}
	rc.mu.Lock()
	if rc.c == c {
		rc.c = nil
	}
	rc.mu.Unlock()
	_ = c.Close()
}

func (rc *Reliable) noteRetry() {
	rc.mu.Lock()
	rc.retries++
	rc.mu.Unlock()
}

// backoff sleeps the jittered exponential delay for attempt (≥ 1).
func (rc *Reliable) backoff(attempt int) {
	d := rc.opts.BaseBackoff << (attempt - 1)
	if d > rc.opts.MaxBackoff || d <= 0 {
		d = rc.opts.MaxBackoff
	}
	// Jitter to 50–150 % so a fleet of retrying clients spreads out.
	d = time.Duration(float64(d) * (0.5 + rc.opts.Rand()))
	rc.opts.Sleep(d)
}

// permanent reports whether err can never be repaired by retrying:
// malformed requests, server-side evaluation failures, expired
// deadlines, an inference with no session, and repair-mismatch errors.
func permanent(err error) bool {
	if errors.Is(err, ErrNoSession) {
		return true
	}
	var re *serve.RequestError
	if errors.As(err, &re) {
		switch re.Code {
		case serve.CodeBadRequest, serve.CodeInternal, serve.CodeDeadline:
			return true
		}
		return false
	}
	var redir *serve.RedirectError
	if errors.As(err, &redir) {
		return false
	}
	// Dial, write, and read errors are all transient: the next attempt
	// redials.
	return false
}

// needsKeys reports whether err asks the client to re-upload its
// evaluation keys.
func needsKeys(err error) bool {
	var re *serve.RequestError
	return errors.As(err, &re) && re.Code == serve.CodeSessionNotFound
}

// backsOff reports whether err is server-side pressure best answered by
// waiting: BUSY (admission or rate limit), DRAINING, UNAVAILABLE.
func backsOff(err error) bool {
	var re *serve.RequestError
	return errors.As(err, &re) &&
		(re.Code == serve.CodeBusy || re.Code == serve.CodeDraining || re.Code == serve.CodeUnavailable)
}
