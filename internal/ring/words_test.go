package ring

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// TestWordsRoundTrip: WriteWords lays words down exactly as
// binary.LittleEndian.PutUint64 would, across buffer flushes, and
// WordReader reads them back.
func TestWordsRoundTrip(t *testing.T) {
	vs := make([]uint64, 3000) // 24 000 bytes: several 4 KiB flushes
	for i := range vs {
		vs[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := WriteWords(w, vs[:1]...); err != nil {
		t.Fatal(err)
	}
	if err := WriteWords(w, vs[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(want[8*i:], v)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("WriteWords bytes differ from PutUint64")
	}

	r := WordReader{R: bytes.NewReader(want)}
	first, err := r.Word()
	if err != nil || first != vs[0] {
		t.Fatalf("Word = %d, %v; want %d", first, err, vs[0])
	}
	got := make([]uint64, len(vs)-1)
	if err := r.Words(got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != vs[i+1] {
			t.Fatalf("word %d = %d, want %d", i+1, v, vs[i+1])
		}
	}
	if _, err := r.Word(); err != io.EOF {
		t.Fatalf("read past the end: %v, want EOF", err)
	}
}

// TestWordsBelowRejects: a word at the bound fails with an error naming
// it, one below passes, and a short stream is an error, not a partial
// fill reported as success.
func TestWordsBelowRejects(t *testing.T) {
	enc := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	dst := make([]uint64, 3)
	r := WordReader{R: bytes.NewReader(enc(1, 16, 2))}
	if err := r.WordsBelow(dst, 17); err != nil {
		t.Fatalf("in-range words rejected: %v", err)
	}
	r = WordReader{R: bytes.NewReader(enc(1, 17, 2))}
	if err := r.WordsBelow(dst, 17); err == nil {
		t.Fatal("word equal to the bound accepted")
	}
	r = WordReader{R: bytes.NewReader(enc(1, 2)[:15])}
	if err := r.WordsBelow(dst, 17); err == nil {
		t.Fatal("short stream accepted")
	}
}

// TestWordsZeroAllocs: once the staging buffer has grown to a limb, a
// limb read allocates nothing, and neither does writing one into a
// bufio.Writer — the per-word allocations of an escaping [8]byte are
// what this replaces.
func TestWordsZeroAllocs(t *testing.T) {
	limb := make([]uint64, 512)
	blob := make([]byte, 8*len(limb))
	src := bytes.NewReader(blob)
	r := WordReader{R: src}
	if n := testing.AllocsPerRun(50, func() {
		src.Reset(blob)
		if err := r.WordsBelow(limb, 1<<62); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WordsBelow allocates %v times per limb, want 0", n)
	}
	w := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(50, func() {
		if err := WriteWords(w, limb...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteWords allocates %v times per limb, want 0", n)
	}
}
