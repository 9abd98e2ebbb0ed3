package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTestStore(t *testing.T, dir string, opts Options) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// testVal is n deterministic bytes that differ per seed.
func testVal(seed int64, n int) []byte {
	val := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(val)
	return val
}

func mustPut(t *testing.T, s *Store, val []byte) string {
	t.Helper()
	id, err := s.Put(val)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if id != ID(val) {
		t.Fatalf("Put returned %s, want the content address %s", id, ID(val))
	}
	return id
}

// mustHold asserts id loads, verifies and reads back as val.
func mustHold(t *testing.T, s *Store, id string, val []byte) {
	t.Helper()
	b, err := s.Load(id)
	if err != nil {
		t.Fatalf("Load(%s): %v", id, err)
	}
	defer b.Close()
	if err := b.Verify(); err != nil {
		t.Fatalf("Verify(%s): %v", id, err)
	}
	got := make([]byte, b.Size())
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt(%s): %v", id, err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("object %s does not read back", id)
	}
}

func mustMiss(t *testing.T, s *Store, id string) {
	t.Helper()
	if b, err := s.Load(id); !errors.Is(err, ErrNotFound) {
		if err == nil {
			b.Close()
		}
		t.Fatalf("Load(%s): %v, want ErrNotFound", id, err)
	}
}

// dirNames lists the data directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func mustNoTemps(t *testing.T, dir string) {
	t.Helper()
	for _, name := range dirNames(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Fatalf("temp file %s left in the data directory", name)
		}
	}
}

func TestStorePutLoadDelete(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, Options{})
	val := testVal(1, 1000)
	id := mustPut(t, s, val)
	if !validID(id) {
		t.Fatalf("id %q is not well formed", id)
	}
	mustHold(t, s, id, val)
	if got := dirNames(t, dir); len(got) != 1 || got[0] != id {
		t.Fatalf("directory holds %v, want exactly the object under its address", got)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, s, id)
	if got := dirNames(t, dir); len(got) != 0 {
		t.Fatalf("delete left %v", got)
	}
	// Deleting an absent id is a no-op; an empty value has no address.
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(nil); err == nil {
		t.Fatal("empty value stored")
	}
	if st := s.Stats(); st.Puts != 1 || st.Deletes != 1 || st.Loads != 1 || st.Entries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// Re-putting an object that is present (the content-addressed steady
// state) writes nothing: same file, no new Put counted.
func TestStoreIdempotentPut(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, Options{})
	val := testVal(2, 500)
	id := mustPut(t, s, val)
	before, err := os.Stat(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustPut(t, s, val)
	}
	after, err := os.Stat(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) {
		t.Fatal("duplicate puts rewrote the object")
	}
	if st := s.Stats(); st.Puts != 1 || st.Entries != 1 || st.DiskBytes != int64(len(val)) {
		t.Fatalf("stats %+v after duplicate puts", st)
	}
	mustNoTemps(t, dir)
}

func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, Options{})
	vals := map[string][]byte{}
	for i := 0; i < 10; i++ {
		val := testVal(int64(10+i), 200+i)
		vals[mustPut(t, s, val)] = val
	}
	gone := mustPut(t, s, testVal(99, 300))
	if err := s.Delete(gone); err != nil {
		t.Fatal(err)
	}
	// No Close: whatever Put acknowledged is on disk already.
	s2, rec := openTestStore(t, dir, Options{})
	if rec != (Recovery{Entries: len(vals)}) {
		t.Fatalf("recovery = %+v", rec)
	}
	for id, val := range vals {
		mustHold(t, s2, id, val)
	}
	mustMiss(t, s2, gone)
	if st := s2.Stats(); st.RecoveredEntries != len(vals) || st.Entries != len(vals) {
		t.Fatalf("stats %+v", st)
	}
}

// TestStoreCrashPoints builds, by hand, the directory each prefix of
// the put protocol leaves behind when the process dies there, beside
// one object whose Put had returned. After Open the acknowledged object
// is present and verifies, nothing that was not acknowledged is visible
// unless it is complete under its own address, no temp file is left and
// the Recovery counts are exact.
func TestStoreCrashPoints(t *testing.T) {
	acked, torn := testVal(20, 4096), testVal(21, 4096)
	tornID := ID(torn)
	for _, tc := range []struct {
		name    string
		files   map[string][]byte // beside the acknowledged object
		visible bool              // torn is served after Open
		partial int
	}{
		{name: "temp created empty", files: map[string][]byte{tornID + ".tmp-1": {}}, partial: 1},
		{name: "temp half written", files: map[string][]byte{tornID + ".tmp-1": torn[:2048]}, partial: 1},
		{name: "temp complete, not renamed", files: map[string][]byte{tornID + ".tmp-1": torn}, partial: 1},
		// The rename reached the disk or it did not; a crash before the
		// directory fsync may leave either. Not renamed is the row above.
		// Renamed, the object is whole (its own fsync came first) and
		// hashes to its name: serving it is right although nobody was told.
		{name: "renamed, directory not yet synced", files: map[string][]byte{tornID: torn}, visible: true},
		{name: "second put of the id racing the first, neither done",
			files: map[string][]byte{tornID + ".tmp-1": torn, tornID + ".tmp-2": torn[:100]}, partial: 2},
		{name: "second put of the id racing the first, first done",
			files: map[string][]byte{tornID: torn, tornID + ".tmp-2": torn[:100]}, visible: true, partial: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s0, _ := openTestStore(t, dir, Options{})
			ackedID := mustPut(t, s0, acked)
			for name, content := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), content, 0o600); err != nil {
					t.Fatal(err)
				}
			}

			s, rec := openTestStore(t, dir, Options{})
			want := Recovery{Entries: 1, PartialRemoved: tc.partial}
			if tc.visible {
				want.Entries = 2
			}
			if rec != want {
				t.Fatalf("recovery = %+v, want %+v", rec, want)
			}
			mustNoTemps(t, dir)
			mustHold(t, s, ackedID, acked)
			if tc.visible {
				mustHold(t, s, tornID, torn)
			} else {
				mustMiss(t, s, tornID)
			}
			// The client whose upload was cut off retries, and it lands.
			mustPut(t, s, torn)
			mustHold(t, s, tornID, torn)
			mustNoTemps(t, dir)
		})
	}
}

// A directory of the earlier WAL+segment format is refused with an
// error that says so, never opened as an empty store.
func TestStoreRefusesOldFormat(t *testing.T) {
	for _, name := range []string{"wal.log", "seg-000001-000000.sst"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		temp := filepath.Join(dir, ID([]byte("x"))+".tmp-1")
		if err := os.WriteFile(temp, []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "earlier version") || !strings.Contains(err.Error(), name) {
			t.Fatalf("Open over %s: %v, want a refusal naming the old format", name, err)
		}
		if _, err := os.Stat(temp); err != nil {
			t.Fatalf("refused directory was modified: %v", err)
		}
	}
}

// A byte flip anywhere in an object is caught by Verify, the object is
// set aside as <id>.corrupt and reported as absent, and the next Put of
// the same bytes heals it.
func TestStoreQuarantineAndHeal(t *testing.T) {
	val := testVal(30, 10_000)
	id := ID(val)
	for _, damage := range []struct {
		name string
		do   func(path string) error
	}{
		{"first byte", func(p string) error { return flipByte(p, 0) }},
		{"last byte", func(p string) error { return flipByte(p, int64(len(val)-1)) }},
		{"truncated", func(p string) error { return os.Truncate(p, int64(len(val)/2)) }},
		{"extended", func(p string) error {
			f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte("junk"))
			return err
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			s0, _ := openTestStore(t, dir, Options{})
			mustPut(t, s0, val)
			if err := damage.do(filepath.Join(dir, id)); err != nil {
				t.Fatal(err)
			}

			s, _ := openTestStore(t, dir, Options{})
			b, err := s.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Verify(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Verify of a damaged object: %v, want ErrNotFound", err)
			}
			b.Close()
			mustMiss(t, s, id)
			if got := dirNames(t, dir); len(got) != 1 || got[0] != id+".corrupt" {
				t.Fatalf("directory holds %v, want only the quarantined file", got)
			}
			if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 || st.DiskBytes != 0 {
				t.Fatalf("stats %+v", st)
			}
			mustPut(t, s, val)
			mustHold(t, s, id, val)

			// The quarantined file is counted, and never served, after a restart.
			s2, rec := openTestStore(t, dir, Options{})
			if rec != (Recovery{Entries: 1, Quarantined: 1}) {
				t.Fatalf("recovery = %+v", rec)
			}
			mustHold(t, s2, id, val)
			mustMiss(t, s2, id+".corrupt")
		})
	}
}

func flipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x40
	_, err = f.WriteAt(b[:], off)
	return err
}

// With a disk cap, cold objects are evicted (oldest access first) to
// make room, and the incoming object always survives.
func TestStoreDiskCapEvictsCold(t *testing.T) {
	dir := t.TempDir()
	const size, limit = 8 << 10, 40 << 10
	s, _ := openTestStore(t, dir, Options{DiskCapBytes: limit})
	var cold []string
	for i := 0; i < 4; i++ {
		cold = append(cold, mustPut(t, s, testVal(int64(40+i), size)))
	}
	// Touch the first so it is the hottest.
	mustHold(t, s, cold[0], testVal(40, size))
	var fresh []string
	for i := 0; i < 3; i++ {
		fresh = append(fresh, mustPut(t, s, testVal(int64(50+i), size)))
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Entries != 5 || st.DiskBytes != 5*size {
		t.Fatalf("stats %+v, want 2 evictions leaving 5 objects", st)
	}
	// Eviction is an unlink: the directory holds what the index holds.
	if got := dirNames(t, dir); len(got) != 5 {
		t.Fatalf("directory holds %v", got)
	}
	mustMiss(t, s, cold[1])
	mustMiss(t, s, cold[2])
	for _, id := range append([]string{cold[0], cold[3]}, fresh...) {
		if b, err := s.Load(id); err != nil {
			t.Fatalf("survivor %s: %v", id, err)
		} else {
			b.Close()
		}
	}
	// A value larger than the cap is rejected, and costs nobody a place.
	if _, err := s.Put(testVal(60, limit+1)); !errors.Is(err, ErrDiskCap) {
		t.Fatalf("oversized put: %v", err)
	}
	if st := s.Stats(); st.Evictions != 2 || st.Entries != 5 {
		t.Fatalf("rejected put evicted: %+v", st)
	}
	// The cap holds across a restart: sizes come from the directory.
	s2, _ := openTestStore(t, dir, Options{DiskCapBytes: limit})
	mustPut(t, s2, testVal(61, size))
	if st := s2.Stats(); st.Evictions != 1 || st.DiskBytes != 5*size {
		t.Fatalf("stats after restart %+v", st)
	}
}

// The disk-cap eviction honors the cluster ownership hint: objects this
// node no longer owns go before any owned one, even when the unowned
// one is the most recently accessed.
func TestStoreEvictsUnownedFirst(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), Options{DiskCapBytes: 36 << 10})
	vals := [][]byte{testVal(70, 10<<10), testVal(71, 10<<10), testVal(72, 10<<10), testVal(73, 10<<10)}
	a, b, c := mustPut(t, s, vals[0]), mustPut(t, s, vals[1]), mustPut(t, s, vals[2])
	// Make the soon-to-be-unowned object the hottest, so plain LRU would
	// keep it.
	for i := 0; i < 3; i++ {
		mustHold(t, s, b, vals[1])
	}
	s.SetEvictionHint(func(id string) bool { return id != b })

	d := mustPut(t, s, vals[3])
	mustMiss(t, s, b)
	mustHold(t, s, a, vals[0])
	mustHold(t, s, c, vals[2])
	mustHold(t, s, d, vals[3])
	if s.Stats().Evictions != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

// Clearing the hint restores pure recency order.
func TestStoreEvictionHintCleared(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), Options{DiskCapBytes: 36 << 10})
	vals := [][]byte{testVal(80, 10<<10), testVal(81, 10<<10), testVal(82, 10<<10), testVal(83, 10<<10)}
	a, b, c := mustPut(t, s, vals[0]), mustPut(t, s, vals[1]), mustPut(t, s, vals[2])
	// Touch all but a, making it the coldest.
	mustHold(t, s, b, vals[1])
	mustHold(t, s, c, vals[2])
	s.SetEvictionHint(func(id string) bool { return id != b })
	s.SetEvictionHint(nil) // cleared: b is no longer preferred

	mustPut(t, s, vals[3])
	mustMiss(t, s, a)
	mustHold(t, s, b, vals[1])
}

// A blob streams at any offset, and one opened before its object is
// deleted, evicted or quarantined keeps reading: it holds its own
// descriptor.
func TestStoreBlobVerifyAndStream(t *testing.T) {
	s, _ := openTestStore(t, t.TempDir(), Options{DiskCapBytes: 150_000})
	val := testVal(90, 100_000)
	id := mustPut(t, s, val)
	b, err := s.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Size() != int64(len(val)) {
		t.Fatalf("size %d", b.Size())
	}
	mid := make([]byte, 1000)
	if _, err := b.ReadAt(mid, 50_000); err != nil || !bytes.Equal(mid, val[50_000:51_000]) {
		t.Fatalf("mid-read: %v", err)
	}
	mustPut(t, s, testVal(91, 100_000)) // evicts id
	mustMiss(t, s, id)
	if err := b.Verify(); err != nil {
		t.Fatalf("blob unreadable after its object was evicted: %v", err)
	}
	if _, err := b.ReadAt(mid, 99_000); err != nil || !bytes.Equal(mid, val[99_000:]) {
		t.Fatalf("tail read after eviction: %v", err)
	}
	// A verdict on the evicted copy must not touch what replaced it.
	if s.Stats().Quarantined != 0 {
		t.Fatal("a passing Verify quarantined something")
	}
}

// Many writers of one bundle (the same client reconnecting, or a fleet
// sharing keys) produce one file, written once, and every one of them
// returns only when it is durable.
func TestStoreConcurrentPutsOfOneObject(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, Options{})
	val := testVal(100, 64<<10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Put(val); err != nil {
				t.Error(err)
				return
			}
			// Acknowledged means present, for every caller.
			if b, err := s.Load(ID(val)); err != nil {
				t.Error(err)
			} else {
				b.Close()
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Puts != 1 || st.Entries != 1 || st.DiskBytes != int64(len(val)) {
		t.Fatalf("stats %+v, want one write", st)
	}
	mustNoTemps(t, dir)
	mustHold(t, s, ID(val), val)
}

// Writers, readers and deleters over a small pool of objects under a
// tight cap, so evictions, re-uploads and removals of the same ids
// interleave; run with -race. Whatever Load returns must verify — an
// object is only ever visible whole — and the index must match the
// directory at the end.
func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	const size = 4 << 10
	s, _ := openTestStore(t, dir, Options{DiskCapBytes: 6 * size})
	pool := make([][]byte, 12)
	for i := range pool {
		pool[i] = testVal(int64(200+i), size)
	}

	// One blob held open across the eviction of its object.
	heldID := mustPut(t, s, pool[0])
	held, err := s.Load(heldID)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				val := pool[rng.Intn(len(pool))]
				id := ID(val)
				switch rng.Intn(5) {
				case 0:
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				case 1, 2:
					b, err := s.Load(id)
					if errors.Is(err, ErrNotFound) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if err := b.Verify(); err != nil {
						t.Errorf("visible object %s does not verify: %v", id, err)
					}
					b.Close()
				default:
					if _, err := s.Put(val); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Push the held object out for certain, then read it through the
	// descriptor that was open all along.
	if err := s.Delete(heldID); err != nil {
		t.Fatal(err)
	}
	if err := held.Verify(); err != nil {
		t.Fatalf("blob held across eviction: %v", err)
	}
	st := s.Stats()
	if st.Quarantined != 0 {
		t.Fatalf("%d objects quarantined with no damage done", st.Quarantined)
	}
	if st.DiskBytes > 6*size || st.DiskBytes != int64(st.Entries)*size {
		t.Fatalf("stats %+v", st)
	}
	names := dirNames(t, dir)
	if len(names) != st.Entries {
		t.Fatalf("index holds %d objects, directory %v", st.Entries, names)
	}
	for _, name := range names {
		b, err := s.Load(name)
		if err != nil {
			t.Fatalf("%s is in the directory, not in the index: %v", name, err)
		}
		if err := b.Verify(); err != nil {
			t.Fatal(err)
		}
		b.Close()
	}
}

// An object deleted behind the store's back is a miss, and the stale
// index entry goes with it, so a re-upload is written rather than
// taken for present.
func TestStoreHealsExternalDelete(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir, Options{})
	val := testVal(310, 1000)
	id := mustPut(t, s, val)
	if err := os.Remove(filepath.Join(dir, id)); err != nil {
		t.Fatal(err)
	}
	mustMiss(t, s, id)
	mustPut(t, s, val)
	mustHold(t, s, id, val)
	if st := s.Stats(); st.Puts != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}
