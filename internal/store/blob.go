package store

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
)

// Blob is a random-access handle on one stored object. It holds its own
// file descriptor, so it stays readable after the object is evicted,
// deleted or quarantined.
type Blob struct {
	f    *os.File
	size int64
	s    *Store
	id   string
	e    *entry // the index entry Load saw; Verify quarantines only that one
}

// Size returns the object length in bytes.
func (b *Blob) Size() int64 { return b.size }

// ReadAt reads from the object at off, io.ReaderAt semantics.
func (b *Blob) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }

// Verify streams the object through SHA-256 and compares the result
// with its name, catching disk corruption before a decoder trusts the
// bytes. An object that fails is quarantined (see Store.Load) and the
// error wraps ErrNotFound: to every caller the object is gone, and a
// fresh Put of the same bytes replaces it.
func (b *Blob) Verify() error {
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(b.f, 0, b.size)); err != nil {
		return err
	}
	if idOf(h.Sum(nil)) == b.id {
		return nil
	}
	if err := b.s.remove(b.id, b.e, &b.s.st.Quarantined); err != nil {
		return err
	}
	return fmt.Errorf("store: object %s does not hash to its name, quarantined: %w", b.id, ErrNotFound)
}

// Close releases the file descriptor.
func (b *Blob) Close() error { return b.f.Close() }
