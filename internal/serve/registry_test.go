package serve

import (
	"bytes"
	"errors"
	"testing"

	"athena/internal/core"
)

// evalKeysBlob generates a distinct key bundle per seed.
func evalKeysBlob(t testing.TB, seed uint64) []byte {
	t.Helper()
	p := core.TestParams()
	p.Seed = seed
	eng, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := eng.WriteEvalKeys(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestRegistryContentAddressing(t *testing.T) {
	blob := evalKeysBlob(t, 101)
	r := NewRegistry(core.TestParams(), 0)
	s1, created, err := r.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first open not marked created")
	}
	if s1.ID != SessionID(blob) {
		t.Fatalf("session ID %s, want content hash %s", s1.ID, SessionID(blob))
	}
	// A bundle at its levels of use is charged its own length.
	if s1.Bytes != int64(len(blob)) {
		t.Fatalf("session charged %d bytes, bundle is %d", s1.Bytes, len(blob))
	}
	// Same material again: same resident session, no rebuild.
	s2, created, err := r.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if created || s2 != s1 {
		t.Fatal("re-upload of identical keys did not reuse the session")
	}
	if got, ok := resident(r, s1.ID); !ok || got != s1 {
		t.Fatal("the session is not resident under its ID")
	}
}

// resident reports the session r holds in RAM under id, touching
// nothing.
func resident(r *Registry, id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

func TestRegistryLRUEvictionAndPinning(t *testing.T) {
	blobA := evalKeysBlob(t, 201)
	blobB := evalKeysBlob(t, 202)
	// Cap fits one session only.
	r := NewRegistry(core.TestParams(), int64(len(blobA))+1)

	a, _, err := r.Open(blobA)
	if err != nil {
		t.Fatal(err)
	}

	// Pinned sessions must not be evicted: opening B has to fail.
	if _, err := r.Acquire(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Open(blobB); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("open over a pinned session: got %v, want ErrRegistryFull", err)
	}
	if _, ok := resident(r, a.ID); !ok {
		t.Fatal("pinned session disappeared after failed open")
	}

	// Released, A becomes the LRU victim.
	r.Release(a)
	b, created, err := r.Open(blobB)
	if err != nil || !created {
		t.Fatalf("open after release: created=%v err=%v", created, err)
	}
	if _, ok := resident(r, a.ID); ok {
		t.Fatal("LRU session survived eviction")
	}
	if _, ok := resident(r, b.ID); !ok {
		t.Fatal("fresh session missing")
	}
	count, total, _, evictions := r.Stats()
	if count != 1 || evictions != 1 {
		t.Fatalf("stats: count=%d evictions=%d, want 1/1", count, evictions)
	}
	if total != b.Bytes {
		t.Fatalf("resident bytes %d, want %d", total, b.Bytes)
	}
}

func TestRegistryRejectsGarbage(t *testing.T) {
	r := NewRegistry(core.TestParams(), 0)
	if _, _, err := r.Open([]byte("not a key bundle")); err == nil {
		t.Fatal("garbage blob accepted")
	}
	count, _, _, _ := r.Stats()
	if count != 0 {
		t.Fatal("failed open left residue in the registry")
	}
}
