// Package store is the durable session tier behind the serve registry:
// a directory of content-addressed files. What a server holds for a
// client is one immutable evaluation-key bundle, uploaded once and
// megabytes large, so an object is a file named by the SHA-256 of its
// bytes and the only in-memory state is an index of names and sizes.
//
// Put writes <id>.tmp-*, fsyncs it, renames it to <id> and fsyncs the
// directory before it returns, so an acknowledged object survives a
// crash at any later point and a crash at any earlier point leaves at
// most a *.tmp-* file that Open removes. The name is the integrity
// check: Blob.Verify hashes the file and compares with its name, and an
// object that fails is renamed to <id>.corrupt, never served, and healed
// by the next Put of the same bytes.
//
// The mutex guards the index only — no write, fsync, read or unlink
// runs under it. A file is created, replaced or removed by at most one
// call at a time: an id is in the index (readable, removable) or in
// busy (one Put or removal owns the file), never both, and a second Put
// of a busy id waits for the first outside the mutex.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrNotFound reports a Load of an id that is absent, deleted, evicted
// or quarantined.
var ErrNotFound = errors.New("store: object not found")

// ErrDiskCap reports a Put larger than the disk cap, or one that does
// not fit with every object that is not being written evicted.
var ErrDiskCap = errors.New("store: disk cap exceeded and nothing evictable")

// Options tunes a Store.
type Options struct {
	// DiskCapBytes bounds the bytes of stored objects. A Put that would
	// exceed it first evicts objects this node does not own (see
	// SetEvictionHint), then the least recently accessed (0 = unbounded).
	DiskCapBytes int64
}

// Recovery summarizes what Open found in the data directory.
type Recovery struct {
	// Entries is the number of objects indexed.
	Entries int
	// PartialRemoved counts *.tmp-* files of uploads that never
	// completed, which Open removed.
	PartialRemoved int
	// Quarantined counts *.corrupt files set aside earlier and still
	// in the directory.
	Quarantined int
}

// Stats is a point-in-time snapshot of store occupancy and lifetime
// counters; it is the "store" block of the /metrics document.
type Stats struct {
	Entries   int   `json:"entries"`
	DiskBytes int64 `json:"disk_bytes"`

	Puts      uint64 `json:"puts"`
	Deletes   uint64 `json:"deletes"`
	Loads     uint64 `json:"loads"`
	Evictions uint64 `json:"evictions"`
	// Quarantined counts objects set aside as <id>.corrupt: those found
	// at Open plus those caught since.
	Quarantined uint64 `json:"quarantined"`

	RecoveredEntries int `json:"recovered_entries"`
}

// Add sums o into s field by field (the cluster aggregate).
func (s *Stats) Add(o Stats) {
	s.Entries += o.Entries
	s.DiskBytes += o.DiskBytes
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.Loads += o.Loads
	s.Evictions += o.Evictions
	s.Quarantined += o.Quarantined
	s.RecoveredEntries += o.RecoveredEntries
}

// idLen is the length of an object name: 128 bits of SHA-256 in hex,
// which is also the wire format of a session ID.
const idLen = 32

// ID returns the content address of val, the name Put stores it under.
func ID(val []byte) string {
	sum := sha256.Sum256(val)
	return idOf(sum[:])
}

func idOf(sum []byte) string { return hex.EncodeToString(sum[:idLen/2]) }

func validID(name string) bool {
	_, err := hex.DecodeString(name)
	return err == nil && len(name) == idLen && name == strings.ToLower(name)
}

// entry is the index record of one object. Entries are compared by
// pointer: a removal names the entry it saw, so it cannot take away an
// object that was re-uploaded in between.
type entry struct {
	size  int64
	clock uint64 // logical last-access time (not persisted)
}

// Store is the object directory. All methods are safe for concurrent
// use. See the package comment for the design.
type Store struct {
	dir string
	cap int64

	mu    sync.Mutex
	index map[string]*entry
	// busy holds the ids whose file a Put or a removal is working on;
	// the channel is closed when that call is done.
	busy  map[string]chan struct{}
	bytes int64 // indexed objects plus Puts in flight
	clock uint64
	// owned is the cluster ownership hint (nil = everything owned).
	owned func(id string) bool
	st    Stats
}

// Open attaches a store to dir, creating it if needed: one ReadDir
// that removes the *.tmp-* files of uploads a crash interrupted and
// indexes every file whose name is a well-formed id. Nothing is hashed
// here; objects are verified when they are loaded. A directory written
// by the earlier log-structured store is refused.
func Open(dir string, opts Options) (*Store, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == "wal.log" || (strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".sst")) {
			return nil, Recovery{}, fmt.Errorf("store: %s holds %s, the WAL+segment format of an earlier version; this version keeps one file per object and does not read it — move the directory aside and let clients re-upload", dir, name)
		}
	}
	s := &Store{dir: dir, cap: opts.DiskCapBytes, index: map[string]*entry{}, busy: map[string]chan struct{}{}}
	var rec Recovery
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case !ent.Type().IsRegular():
		case strings.Contains(name, ".tmp-"):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, Recovery{}, err
			}
			rec.PartialRemoved++
		case strings.HasSuffix(name, ".corrupt"):
			rec.Quarantined++
		case validID(name):
			fi, err := ent.Info()
			if err != nil {
				return nil, Recovery{}, err
			}
			s.index[name] = &entry{size: fi.Size()}
			s.bytes += fi.Size()
		}
	}
	rec.Entries = len(s.index)
	s.st.RecoveredEntries = rec.Entries
	s.st.Quarantined = uint64(rec.Quarantined)
	return s, rec, nil
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id) }

func (s *Store) touchLocked(e *entry) {
	s.clock++
	e.clock = s.clock
}

// releaseLocked ends the caller's hold on id's file and wakes the Puts
// waiting for it.
func (s *Store) releaseLocked(id string) {
	close(s.busy[id])
	delete(s.busy, id)
}

// Put makes val durable under its content address and returns that
// address. It returns only after the file's fsync, the rename and the
// directory's fsync. An object already present is a no-op that
// refreshes its access clock.
func (s *Store) Put(val []byte) (string, error) {
	id, need := ID(val), int64(len(val))
	if need == 0 {
		return "", errors.New("store: empty value")
	}
	if s.cap > 0 && need > s.cap {
		return "", ErrDiskCap
	}
	for {
		s.mu.Lock()
		if e, ok := s.index[id]; ok {
			s.touchLocked(e)
			s.mu.Unlock()
			return id, nil
		}
		if wait, taken := s.busy[id]; taken {
			// Another call is writing these bytes (or removing the
			// object): when it is done the object is durable, and the next
			// turn finds it, or absent, and this call writes it.
			s.mu.Unlock()
			<-wait
			continue
		}
		if s.cap <= 0 || s.bytes+need <= s.cap {
			s.busy[id] = make(chan struct{})
			s.bytes += need
			s.mu.Unlock()
			break
		}
		victim, e := s.coldestLocked()
		s.mu.Unlock()
		if e == nil {
			return "", ErrDiskCap
		}
		if err := s.remove(victim, e, &s.st.Evictions); err != nil {
			return "", err
		}
	}

	err := s.write(id, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(id)
	if err != nil {
		s.bytes -= need
		return "", err
	}
	e := &entry{size: need}
	s.touchLocked(e)
	s.index[id] = e
	s.st.Puts++
	return id, nil
}

// write is the put protocol: temp file, fsync, rename, directory fsync.
func (s *Store) write(id string, val []byte) error {
	f, err := os.CreateTemp(s.dir, id+".tmp-*")
	if err != nil {
		return err
	}
	if _, err = f.Write(val); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), s.path(id))
	}
	if err != nil {
		_ = os.Remove(f.Name()) // the write error wins; Open removes what this leaves
		return err
	}
	return s.Flush()
}

// coldestLocked picks what the disk cap evicts next: an object this
// node does not own before any it owns, then the oldest access clock,
// id order breaking ties (every object is equally old after a restart).
func (s *Store) coldestLocked() (victim string, ve *entry) {
	victimOwned := true
	for id, e := range s.index {
		owned := s.owned == nil || s.owned(id)
		switch {
		case ve == nil, victimOwned && !owned,
			victimOwned == owned && (e.clock < ve.clock || e.clock == ve.clock && id < victim):
			victim, ve, victimOwned = id, e, owned
		}
	}
	return victim, ve
}

// SetEvictionHint installs the cluster ownership predicate: objects
// for which owned returns false are evicted under disk pressure before
// any owned object, regardless of recency. nil clears the hint. The
// predicate must be safe for concurrent use and must not call back
// into the store.
func (s *Store) SetEvictionHint(owned func(id string) bool) {
	s.mu.Lock()
	s.owned = owned
	s.mu.Unlock()
}

// Load opens id's object for random-access reading. The caller must
// check it with Blob.Verify before trusting the bytes — an object that
// no longer hashes to its name is renamed to <id>.corrupt there and
// reported as ErrNotFound — and must Close the blob.
func (s *Store) Load(id string) (*Blob, error) {
	s.mu.Lock()
	e, ok := s.index[id]
	if ok {
		s.touchLocked(e)
		s.st.Loads++
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	f, err := os.Open(s.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		// Evicted since the index was read (then e is gone from it and
		// remove does nothing), or deleted behind the store's back.
		if err := s.remove(id, e, &s.st.Deletes); err != nil {
			return nil, err
		}
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return &Blob{f: f, size: e.size, s: s, id: id, e: e}, nil
}

// Delete removes id's object. Deleting an absent id is a no-op.
func (s *Store) Delete(id string) error { return s.remove(id, nil, &s.st.Deletes) }

// remove takes id out of the index, counts it in one of the store's
// counters, and then unlinks its file — or, when the counter is
// Quarantined, renames it to <id>.corrupt. With want set it acts only
// if the index still holds that very entry.
func (s *Store) remove(id string, want *entry, count *uint64) error {
	s.mu.Lock()
	e, ok := s.index[id]
	if !ok || (want != nil && e != want) {
		s.mu.Unlock()
		return nil
	}
	delete(s.index, id)
	s.bytes -= e.size
	s.busy[id] = make(chan struct{})
	*count++
	s.mu.Unlock()

	var err error
	if count == &s.st.Quarantined {
		err = os.Rename(s.path(id), s.path(id)+".corrupt")
	} else {
		err = os.Remove(s.path(id))
	}
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	s.mu.Lock()
	s.releaseLocked(id)
	s.mu.Unlock()
	return err
}

// Flush fsyncs the data directory. Put already does before it returns;
// this stays for callers that want a barrier of their own.
func (s *Store) Flush() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of occupancy and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Entries = len(s.index)
	st.DiskBytes = s.bytes
	return st
}

// Close does nothing: no descriptor is held between calls and every
// acknowledged Put is on disk already. It stays for the callers that
// pair it with Open.
func (s *Store) Close() error { return nil }
