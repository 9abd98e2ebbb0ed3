package ring

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The wire formats of bfv and lwe are sequences of little-endian 64-bit
// words. WordReader and WriteWords move them in bulk: a limb or a row is
// one read into, or one append onto, a buffer its reader or writer
// already owns, so no word is staged anywhere else.

// WordReader decodes little-endian words from R through one reusable
// staging buffer. The zero value with R set is ready to use; a
// WordReader is single-goroutine state.
type WordReader struct {
	R    io.Reader
	buf  []byte
	word [8]byte // Word's staging, so a header never grows buf
}

// stage reads n bytes into the staging buffer, growing it once to the
// largest read seen. Callers size n from a destination they have already
// allocated, so the buffer never runs ahead of it.
//
//lint:noalloc
func (r *WordReader) stage(n int) ([]byte, error) {
	if cap(r.buf) < n {
		r.buf = make([]byte, n) //lint:prealloc grown to the largest limb or row read, then reused for every later one
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.R, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Word reads one word.
//
//lint:noalloc
func (r *WordReader) Word() (uint64, error) {
	if _, err := io.ReadFull(r.R, r.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.word[:]), nil
}

// Words fills dst with the next len(dst) words.
//
//lint:noalloc
func (r *WordReader) Words(dst []uint64) error {
	b, err := r.stage(8 * len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return nil
}

// WordsBelow fills dst with the next len(dst) words, each of which must be
// below bound: a residue at or above its modulus is rejected as it lands,
// at the trust boundary, before any kernel sees it.
//
//lint:noalloc
func (r *WordReader) WordsBelow(dst []uint64, bound uint64) error {
	b, err := r.stage(8 * len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		v := binary.LittleEndian.Uint64(b[8*i:])
		if v >= bound {
			return fmt.Errorf("word %d is %d, outside [0, %d)", i, v, bound)
		}
		dst[i] = v
	}
	return nil
}

// WriteWords writes vs as little-endian words: each run is appended to
// w.AvailableBuffer() and handed straight back to w.Write, flushing when
// fewer than eight bytes are free. w's buffer must hold a word.
//
// It is not //lint:noalloc: the pass assumes every bufio.Writer method
// allocates (Write and Flush reach the destination through io.Writer,
// which no static pass can see into). TestWordsZeroAllocs pins it
// instead, and core's TestWireCodecAllocs the writers built on it.
func WriteWords(w *bufio.Writer, vs ...uint64) error {
	for len(vs) > 0 {
		if w.Available() < 8 {
			if err := w.Flush(); err != nil {
				return err
			}
			if w.Available() < 8 {
				return io.ErrShortBuffer
			}
		}
		b := w.AvailableBuffer()
		n := min(len(vs), cap(b)/8)
		for _, v := range vs[:n] {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}
