package serve

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"athena/internal/core"
	"athena/internal/store"
)

func testStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// With the durable tier attached, an LRU-evicted session is reloaded
// from disk on Lookup instead of being lost.
func TestRegistryColdLoadAfterEviction(t *testing.T) {
	blobA := evalKeysBlob(t, 301)
	blobB := evalKeysBlob(t, 302)
	dir := t.TempDir()
	st := testStore(t, dir)

	charge := evalKeysCharge(t)
	r := NewRegistry(core.TestParams(), charge+1) // fits one session
	r.SetStore(st)

	a, _, err := r.Open(blobA)
	if err != nil {
		t.Fatal(err)
	}
	aID := a.ID
	if _, err := os.Stat(filepath.Join(dir, aID)); err != nil {
		t.Fatalf("acked session is not a file under its content address: %v", err)
	}
	if _, _, err := r.Open(blobB); err != nil {
		t.Fatal(err)
	}
	if _, ok := resident(r, aID); ok {
		t.Fatal("A still resident after eviction")
	}

	// Lookup reloads A from disk (evicting B in turn under the tiny cap).
	a2, err := r.Lookup(aID)
	if err != nil {
		t.Fatalf("cold lookup: %v", err)
	}
	if a2.ID != aID || a2.Bytes != charge {
		t.Fatalf("cold-loaded session ID=%s bytes=%d, want %s/%d", a2.ID, a2.Bytes, aID, charge)
	}
	if a2 == a {
		t.Fatal("cold load returned the evicted pointer")
	}
	hot, cold, misses := r.TierStats()
	if cold != 1 {
		t.Fatalf("coldLoads=%d want 1 (hot=%d misses=%d)", cold, hot, misses)
	}
	// Resident now: a second lookup is a hot hit.
	if _, err := r.Lookup(aID); err != nil {
		t.Fatal(err)
	}
	if hot2, _, _ := r.TierStats(); hot2 != hot+1 {
		t.Fatalf("hot hit not counted: %d -> %d", hot, hot2)
	}
	// Unknown ID is a miss in both tiers.
	if _, err := r.Lookup("00000000000000000000000000000000"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
	if _, _, m := r.TierStats(); m != 1 {
		t.Fatalf("misses=%d want 1", m)
	}
}

// A stored session whose bundle has a layout version this build no
// longer reads — version 1 holds the per-value keyswitch matrix, version
// 2 the keys' A rows — is answered as not found, so its client uploads
// its keys again.
func TestRegistryStaleBundleVersionIsNotFound(t *testing.T) {
	for _, v := range []uint64{1, 2} {
		blob := evalKeysBlob(t, 303)
		binary.LittleEndian.PutUint64(blob[8:], v)
		st := testStore(t, t.TempDir())
		id, err := st.Put(blob)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistry(core.TestParams(), 1<<30)
		r.SetStore(st)
		if _, err := r.Lookup(id); !errors.Is(err, ErrSessionNotFound) {
			t.Fatalf("cold load of a version-%d bundle: %v, want ErrSessionNotFound", v, err)
		}
		var stale *core.BundleVersionError
		if _, _, err := r.Open(blob); !errors.As(err, &stale) || stale.Version != v {
			t.Fatalf("upload of a version-%d bundle: %v, want a *core.BundleVersionError", v, err)
		}
	}
}

// A session uploaded before a restart must attach from a brand-new
// registry over the same data dir without re-upload.
func TestRegistrySurvivesRestart(t *testing.T) {
	blob := evalKeysBlob(t, 303)
	dir := t.TempDir()

	st1 := testStore(t, dir)
	r1 := NewRegistry(core.TestParams(), 0)
	r1.SetStore(st1)
	s, _, err := r1.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := testStore(t, dir)
	r2 := NewRegistry(core.TestParams(), 0)
	r2.SetStore(st2)
	if _, ok := resident(r2, id); ok {
		t.Fatal("fresh registry claims residency")
	}
	s2, err := r2.Lookup(id)
	if err != nil {
		t.Fatalf("lookup after restart: %v", err)
	}
	if s2.ID != id {
		t.Fatalf("restored session ID %s want %s", s2.ID, id)
	}
	// The restored engine must be evaluation-capable (keys validated on
	// the cold path exactly as on upload).
	if s2.Eng == nil {
		t.Fatal("restored session has no engine")
	}
	// Re-uploading the same material to the resident session touches
	// neither tier; to a registry that does not hold it (another restart,
	// or an eviction) it rebuilds the engine and the store takes the
	// bytes for present: no Put counted, the file not rewritten.
	before, err := os.Stat(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	s3, created, err := r2.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if created || s3 != s2 {
		t.Fatal("re-upload after cold load did not reuse the session")
	}
	r3 := NewRegistry(core.TestParams(), 0)
	r3.SetStore(st2)
	if _, created, err := r3.Open(blob); err != nil || !created {
		t.Fatalf("re-upload to a registry without the session: created=%v err=%v", created, err)
	}
	after, err := os.Stat(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) {
		t.Fatal("idempotent re-upload rewrote the object")
	}
	if st := st2.Stats(); st.Puts != 0 || st.Entries != 1 {
		t.Fatalf("idempotent re-upload counted as a write: %+v", st)
	}
}

// A durable entry whose bytes no longer hash to its name must never
// produce a session: the cold load reports the session unknown, the
// store sets the file aside, and the next upload of the keys heals it.
func TestRegistryColdLoadRejectsCorruption(t *testing.T) {
	blob := evalKeysBlob(t, 304)
	dir := t.TempDir()
	st := testStore(t, dir)
	r := NewRegistry(core.TestParams(), 0)
	r.SetStore(st)
	s, _, err := r.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	// The wrong content at the right name.
	if err := os.WriteFile(filepath.Join(dir, id), []byte("wrong bytes entirely"), 0o600); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(core.TestParams(), 0)
	r2.SetStore(st)
	if _, err := r2.Lookup(id); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("cold load of a blob that does not match its address: %v, want ErrSessionNotFound", err)
	}
	if st := st.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("store after the failed cold load: %+v", st)
	}
	if _, created, err := r2.Open(blob); err != nil || !created {
		t.Fatalf("re-upload: created=%v err=%v", created, err)
	}
	r3 := NewRegistry(core.TestParams(), 0)
	r3.SetStore(st)
	if _, err := r3.Lookup(id); err != nil {
		t.Fatalf("cold load after the healing re-upload: %v", err)
	}
}

// BenchmarkColdAttach times a Registry.Lookup of a session that is in the
// store but not resident — the cold attach every routed_churn operation
// pays: hash the file against its name, decode the bundle, build the
// evaluation engine. Each iteration uses a fresh registry; the process's
// plan for the parameters is already built, as on any node that has
// served before.
func BenchmarkColdAttach(b *testing.B) {
	blob := evalKeysBlob(b, 7)
	st := testStore(b, b.TempDir())
	seed := NewRegistry(core.TestParams(), 0)
	seed.SetStore(st)
	s, _, err := seed.Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRegistry(core.TestParams(), 0)
		r.SetStore(st)
		if _, err := r.Lookup(s.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}
