package serve

import (
	"bytes"
	"testing"
)

// TestFrameCodecZeroAllocs enforces the noalloc contract on the framed
// wire path: with a reused write buffer and read arena, encoding and
// decoding a frame allocates nothing, so a connection's steady-state
// loop produces no per-frame garbage.
func TestFrameCodecZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	frame := AppendFrame(nil, FrameInfer, payload)

	var dst []byte
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendFrame(dst[:0], FrameInfer, payload)
	}); n != 0 {
		t.Fatalf("AppendFrame allocates %v times per run, want 0", n)
	}

	rd := bytes.NewReader(frame)
	var arena []byte
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		if _, _, err := ReadFrameInto(rd, &arena, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadFrameInto allocates %v times per run, want 0", n)
	}
}

// TestAppendFrameMatchesWriteFrame pins the zero-alloc encoders to
// their allocating counterparts byte for byte, and the arena reader to
// the allocating reader.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte("the quick brown fox")

	var w bytes.Buffer
	if err := WriteFrame(&w, FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	if got := AppendFrame(nil, FrameResult, payload); !bytes.Equal(got, w.Bytes()) {
		t.Fatalf("AppendFrame %x, WriteFrame %x", got, w.Bytes())
	}

	var arena []byte
	typ, body, err := ReadFrameInto(bytes.NewReader(w.Bytes()), &arena, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameResult || !bytes.Equal(body, payload) {
		t.Fatalf("ReadFrameInto returned type %d payload %q", typ, body)
	}

	// Truncated payloads must surface as io.ErrUnexpectedEOF, exactly as
	// ReadFrame reports them.
	short := w.Bytes()[:w.Len()-3]
	if _, _, err := ReadFrameInto(bytes.NewReader(short), &arena, DefaultMaxFrame); err == nil {
		t.Fatal("ReadFrameInto accepted a truncated frame")
	}
}
