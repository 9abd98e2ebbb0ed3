package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"athena/internal/core"
	"athena/internal/store"
)

// Session is one registered key owner: an evaluation-only engine built
// from uploaded material, usable from any number of connections.
type Session struct {
	ID string

	// Eng is the evaluation-only engine. Batch evaluation on it is
	// serialized by Mu (the engine's worker group is single-caller at
	// the top level); the dynamic batcher is what turns concurrent
	// requests into few large calls rather than many serialized ones.
	Eng *core.Engine
	Mu  sync.Mutex

	// Bytes is the session's memory charge against the registry cap:
	// the size of the bundle its engine would re-export
	// (core.Engine.EvalKeysSize), which tracks the dominant in-memory
	// material, switching keys and packing keys, at the levels the
	// engine holds them. A bundle uploaded with keys above their level
	// of use is charged what the engine keeps, not the bytes uploaded.
	Bytes int64

	// refs counts in-flight work (admitted, not yet replied requests);
	// a referenced session is never evicted. Guarded by the registry
	// mutex.
	refs int
	// lastUsed is the registry's logical LRU clock value at the last
	// touch. Guarded by the registry mutex.
	lastUsed uint64

	// limiter is the session's token bucket (nil = no rate limit),
	// shared by every connection inferring under it and dropped with the
	// session on eviction.
	limiter *tokenBucket
}

// ErrRegistryFull reports that a new session cannot fit under the
// memory cap because every resident session has in-flight work.
var ErrRegistryFull = fmt.Errorf("serve: session registry full (all sessions busy)")

// ErrSessionNotFound reports a lookup of an ID that is neither resident
// nor in the durable tier.
var ErrSessionNotFound = fmt.Errorf("serve: unknown session")

// Registry holds sessions under a memory cap with LRU eviction.
// Sessions with in-flight requests are pinned; eviction only reclaims
// idle ones, so backpressure on the queue never drops an established
// session mid-request.
type Registry struct {
	p        core.Params
	capBytes int64

	mu       sync.Mutex
	sessions map[string]*Session
	total    int64
	clock    uint64 // logical LRU clock: bumped on every touch

	// store is the optional durable tier. When set, Open persists every
	// acked blob before returning and Lookup reloads evicted sessions
	// from disk instead of failing. Resident sessions stay the hot tier:
	// LRU eviction just drops the RAM copy, the disk entry remains.
	store *store.Store

	// newLimiter builds each new session's bucket; NewServer sets it.
	newLimiter func() *tokenBucket

	// owned is the cluster's ownership hint (nil = single-node, every
	// session owned). Idle sessions this node does not own are evicted
	// before any owned session, regardless of recency: after a drain
	// moves a session away, its key material is the first to yield RAM.
	owned func(id string) bool

	// Evictions counts sessions dropped under memory pressure.
	evictions uint64
	// Tier counters: resident lookup hits, disk reloads, true misses.
	hotHits   uint64
	coldLoads uint64
	misses    uint64
}

// NewRegistry builds a registry for servers at params p holding at most
// capBytes of session key material (0 means a 1 GiB default).
func NewRegistry(p core.Params, capBytes int64) *Registry {
	if capBytes <= 0 {
		capBytes = 1 << 30
	}
	return &Registry{p: p, capBytes: capBytes, sessions: make(map[string]*Session),
		newLimiter: func() *tokenBucket { return nil }}
}

// SessionID derives the content-addressed session ID of a key blob:
// the name the durable tier stores it under.
func SessionID(blob []byte) string { return store.ID(blob) }

// SetStore attaches the durable session tier. Call before serving; the
// registry does not take ownership (the server closes the store on
// shutdown after draining).
func (r *Registry) SetStore(st *store.Store) {
	r.mu.Lock()
	r.store = st
	r.mu.Unlock()
}

// SetOwned installs the cluster ownership predicate used to order
// eviction (see the owned field). nil clears it.
func (r *Registry) SetOwned(owned func(id string) bool) {
	r.mu.Lock()
	r.owned = owned
	r.mu.Unlock()
}

// Open registers (or finds) the session for an uploaded eval-keys blob.
// The ID is content-addressed, so re-uploading identical material
// reuses the resident session without rebuilding the engine.
func (r *Registry) Open(blob []byte) (s *Session, created bool, err error) {
	id := SessionID(blob)
	r.mu.Lock()
	if s, ok := r.sessions[id]; ok {
		r.touchLocked(s)
		r.mu.Unlock()
		return s, false, nil
	}
	r.mu.Unlock()

	// Build the engine outside the lock: decoding and key validation
	// are the expensive part, and concurrent opens of distinct sessions
	// should not serialize on the registry.
	ek, err := core.ReadEvalKeys(r.p, bytes.NewReader(blob))
	if err != nil {
		return nil, false, err
	}
	s, err = r.newSession(id, ek)
	if err != nil {
		return nil, false, err
	}

	// Durable before acked: Put returns once the blob is a file under its
	// content address with the file and the directory fsync'd, and only
	// then does the session become visible, so a crash after the client
	// sees OK can never lose it. Persisting only after the engine build
	// means garbage is never written to disk. Put keeps no reference to
	// the blob.
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st != nil {
		if _, err := st.Put(blob); err != nil {
			return nil, false, fmt.Errorf("serve: persisting session: %w", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.sessions[id]; ok { // lost a concurrent open race
		r.touchLocked(prior)
		return prior, false, nil
	}
	if err := r.makeRoomLocked(s.Bytes); err != nil {
		return nil, false, err
	}
	r.sessions[id] = s
	r.total += s.Bytes
	r.touchLocked(s)
	return s, true, nil
}

// Lookup resolves a session ID through both tiers: a resident hit is
// free; otherwise the durable tier is consulted and an evicted session
// is rebuilt from its on-disk blob (streamed — the bundle never
// materializes as a second copy). ErrSessionNotFound means the ID is
// known to neither tier.
func (r *Registry) Lookup(id string) (*Session, error) { return r.resolve(id, 0) }

// Acquire resolves id as Lookup does and pins the session against
// eviction for one in-flight request, in the same locked step that
// finds or inserts it. Release drops the pin.
func (r *Registry) Acquire(id string) (*Session, error) { return r.resolve(id, 1) }

func (r *Registry) resolve(id string, pins int) (*Session, error) {
	r.mu.Lock()
	if s, ok := r.sessions[id]; ok {
		r.hotHits++
		s.refs += pins
		r.touchLocked(s)
		r.mu.Unlock()
		return s, nil
	}
	st := r.store
	r.mu.Unlock()

	// Cold load, outside the lock: hash the file against its name (the
	// content address), then decode and rebuild the engine. A blob that
	// fails the check is quarantined by the store and reported as not
	// found, so the client re-uploads and the fresh copy replaces it.
	var s *Session
	err := store.ErrNotFound
	if st != nil {
		s, err = r.loadCold(st, id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if errors.Is(err, store.ErrNotFound) {
		r.misses++
		return nil, ErrSessionNotFound
	}
	if err != nil {
		return nil, err
	}
	if prior, ok := r.sessions[id]; ok { // lost a concurrent load race
		prior.refs += pins
		r.touchLocked(prior)
		return prior, nil
	}
	if err := r.makeRoomLocked(s.Bytes); err != nil {
		return nil, err
	}
	r.sessions[id] = s
	r.total += s.Bytes
	r.coldLoads++
	s.refs = pins
	r.touchLocked(s)
	return s, nil
}

// loadCold rebuilds one session from its durable blob.
func (r *Registry) loadCold(st *store.Store, id string) (*Session, error) {
	b, err := st.Load(id)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	if err := b.Verify(); err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	ek, err := core.ReadEvalKeysAt(r.p, b, b.Size())
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	s, err := r.newSession(id, ek)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", id, err)
	}
	return s, nil
}

// newSession builds the evaluation engine of decoded keys and charges
// the session what the engine holds.
func (r *Registry) newSession(id string, ek *core.EvalKeys) (*Session, error) {
	eng, err := core.NewEvaluationEngine(r.p, ek)
	if err != nil {
		return nil, err
	}
	size, err := eng.EvalKeysSize()
	if err != nil {
		return nil, err
	}
	return &Session{ID: id, Eng: eng, Bytes: size, limiter: r.newLimiter()}, nil
}

// Release drops one in-flight pin.
func (r *Registry) Release(s *Session) {
	r.mu.Lock()
	if s.refs > 0 {
		s.refs--
	}
	r.mu.Unlock()
}

func (r *Registry) touchLocked(s *Session) {
	r.clock++
	s.lastUsed = r.clock
}

// makeRoomLocked evicts idle sessions in LRU order until need bytes fit
// under the cap. Sessions with in-flight work are skipped; if the cap
// still cannot be met, ErrRegistryFull is returned and nothing changes
// (the candidate blob may also simply exceed the cap on its own).
func (r *Registry) makeRoomLocked(need int64) error {
	for r.total+need > r.capBytes {
		// Two-tier victim choice: any idle session the cluster says this
		// node no longer owns is evicted before any owned one; within a
		// tier, least recently used wins.
		var victim *Session
		victimOwned := true
		for _, s := range r.sessions {
			if s.refs > 0 {
				continue
			}
			sOwned := r.owned == nil || r.owned(s.ID)
			switch {
			case victim == nil,
				victimOwned && !sOwned,
				victimOwned == sOwned && s.lastUsed < victim.lastUsed:
				victim, victimOwned = s, sOwned
			}
		}
		if victim == nil {
			return ErrRegistryFull
		}
		delete(r.sessions, victim.ID)
		r.total -= victim.Bytes
		r.evictions++
	}
	return nil
}

// Stats returns the registry occupancy: session count, resident bytes,
// byte cap, and lifetime eviction count.
func (r *Registry) Stats() (count int, bytes, capBytes int64, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions), r.total, r.capBytes, r.evictions
}

// TierStats returns the lookup-tier counters: resident hits, disk
// reloads, and true misses.
func (r *Registry) TierStats() (hotHits, coldLoads, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hotHits, r.coldLoads, r.misses
}

// StoreStats returns the durable tier's stats (ok=false when the
// registry is memory-only).
func (r *Registry) StoreStats() (store.Stats, bool) {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st == nil {
		return store.Stats{}, false
	}
	return st.Stats(), true
}
