package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wellFormedID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// FuzzOpenDir plants arbitrary file names and contents in a data
// directory — spec is lines of "name=content" — and opens it. The
// directory is the one disk-facing surface the store has left: whatever
// is in it, Open must not panic, must fail only to refuse the old
// format, must serve no name that is not a well-formed id, and must
// leave every well-formed object where it was.
func FuzzOpenDir(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzOpenDir) holds the shapes
	// a crash, a rotted disk or an old version leave behind.
	f.Add("0123456789abcdef0123456789abcdef=content\n0123456789abcdef0123456789abcdef.tmp-1=cont")

	f.Fuzz(func(t *testing.T, spec string) {
		dir := t.TempDir()
		planted := map[string][]byte{}
		for _, line := range strings.Split(spec, "\n") {
			name, content, _ := strings.Cut(line, "=")
			if name == "" || name == "." || name == ".." || len(name) > 100 || strings.ContainsAny(name, "/\x00") {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o600); err != nil {
				continue // a name this filesystem refuses
			}
			planted[name] = []byte(content)
		}
		oldFormat, objects := false, 0
		for name := range planted {
			if name == "wal.log" || (strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".sst")) {
				oldFormat = true
			}
			if wellFormedID.MatchString(name) {
				objects++
			}
		}

		s, rec, err := Open(dir, Options{})
		if oldFormat {
			if err == nil {
				t.Fatal("old-format directory opened")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if rec.Entries != objects || s.Stats().Entries != objects {
			t.Fatalf("indexed %d objects, %d well-formed names planted", rec.Entries, objects)
		}
		for name, content := range planted {
			b, err := s.Load(name)
			if !wellFormedID.MatchString(name) {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("Load(%q) = %v: a name that is no id was served", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("well-formed object %s not indexed: %v", name, err)
			}
			onDisk, rerr := os.ReadFile(filepath.Join(dir, name))
			if rerr != nil || !bytes.Equal(onDisk, content) {
				t.Fatalf("Open touched well-formed object %s: %v", name, rerr)
			}
			if verr := b.Verify(); (verr == nil) != (ID(content) == name) {
				t.Fatalf("Verify(%s) = %v with content that hashes to %s", name, verr, ID(content))
			}
			b.Close()
		}
		mustNoTemps(t, dir)
	})
}
