package serve

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"athena/internal/core"
)

// serveTestEnv caches the expensive fixtures (engine, demo net, a
// serialized input and logits bundle) across the wire tests.
var serveTestEnv struct {
	once    sync.Once
	eng     *core.Engine
	inBlob  []byte
	outBlob []byte
	err     error
}

func wireEnv(t *testing.T) (*core.Engine, []byte, []byte) {
	t.Helper()
	e := &serveTestEnv
	e.once.Do(func() {
		eng, err := core.NewEngine(core.TestParams())
		if err != nil {
			e.err = err
			return
		}
		net1 := DemoNet()
		in, err := eng.EncryptInput(net1, DemoInput(1))
		if err != nil {
			e.err = err
			return
		}
		var b bytes.Buffer
		if err := eng.WriteEncryptedInput(in, &b); err != nil {
			e.err = err
			return
		}
		e.inBlob = append([]byte(nil), b.Bytes()...)
		out, err := eng.EvaluateEncrypted(net1, in)
		if err != nil {
			e.err = err
			return
		}
		b.Reset()
		if err := eng.WriteEncryptedLogits(out, &b); err != nil {
			e.err = err
			return
		}
		e.outBlob = append([]byte(nil), b.Bytes()...)
		e.eng = eng
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.eng, e.inBlob, e.outBlob
}

// trickle writes blob to w in chunk-byte slices, mimicking a slow peer
// whose socket delivers partial reads.
func trickle(w io.WriteCloser, blob []byte, chunk int, closeAfter bool) {
	for off := 0; off < len(blob); off += chunk {
		end := off + chunk
		if end > len(blob) {
			end = len(blob)
		}
		if _, err := w.Write(blob[off:end]); err != nil {
			return
		}
	}
	if closeAfter {
		w.Close()
	}
}

// TestDecodersSurviveSlowReads feeds the core wire decoders their input
// one byte at a time over a net.Pipe: a decoder that assumes full reads
// (instead of io.ReadFull semantics) fails this test.
func TestDecodersSurviveSlowReads(t *testing.T) {
	eng, inBlob, outBlob := wireEnv(t)
	net1 := DemoNet()

	t.Run("input", func(t *testing.T) {
		cl, sv := net.Pipe()
		go trickle(cl, inBlob, 1, true)
		in, err := eng.ReadEncryptedInput(net1, sv)
		if err != nil {
			t.Fatalf("one-byte-at-a-time decode: %v", err)
		}
		var rt bytes.Buffer
		if err := eng.WriteEncryptedInput(in, &rt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt.Bytes(), inBlob) {
			t.Fatal("input did not survive the trickle round-trip")
		}
	})
	t.Run("logits", func(t *testing.T) {
		cl, sv := net.Pipe()
		go trickle(cl, outBlob, 1, true)
		out, err := eng.ReadEncryptedLogits(net1, sv)
		if err != nil {
			t.Fatalf("one-byte-at-a-time decode: %v", err)
		}
		var rt bytes.Buffer
		if err := eng.WriteEncryptedLogits(out, &rt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt.Bytes(), outBlob) {
			t.Fatal("logits did not survive the trickle round-trip")
		}
	})
	t.Run("frame", func(t *testing.T) {
		var framed bytes.Buffer
		if err := WriteFrame(&framed, FrameInfer, EncodeInfer(7, 0, "wire-session", "wire-demo", inBlob)); err != nil {
			t.Fatal(err)
		}
		cl, sv := net.Pipe()
		go trickle(cl, framed.Bytes(), 3, true)
		typ, payload, err := ReadFrame(sv, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameInfer {
			t.Fatalf("frame type %d, want FrameInfer", typ)
		}
		req, err := DecodeInfer(payload)
		if err != nil {
			t.Fatal(err)
		}
		if req.ReqID != 7 || req.Session != "wire-session" || req.Model != "wire-demo" || !bytes.Equal(req.Input, inBlob) {
			t.Fatal("framed request did not round-trip")
		}
	})
}

// TestDecodersFailOnTruncation cuts the stream mid-message: every
// decoder must return an error promptly — not hang, not panic, not
// fabricate a value.
func TestDecodersFailOnTruncation(t *testing.T) {
	eng, inBlob, outBlob := wireEnv(t)
	net1 := DemoNet()

	check := func(t *testing.T, name string, run func(r io.Reader) error, blob []byte) {
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			cut := int(float64(len(blob)) * frac)
			cl, sv := net.Pipe()
			go trickle(cl, blob[:cut], 64, true)
			errC := make(chan error, 1)
			go func() { errC <- run(sv) }()
			select {
			case err := <-errC:
				if err == nil {
					t.Fatalf("%s truncated at %d/%d bytes: decoder accepted", name, cut, len(blob))
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s truncated at %d/%d bytes: decoder hung", name, cut, len(blob))
			}
		}
	}
	t.Run("input", func(t *testing.T) {
		check(t, "input", func(r io.Reader) error {
			_, err := eng.ReadEncryptedInput(net1, r)
			return err
		}, inBlob)
	})
	t.Run("logits", func(t *testing.T) {
		check(t, "logits", func(r io.Reader) error {
			_, err := eng.ReadEncryptedLogits(net1, r)
			return err
		}, outBlob)
	})
	t.Run("frame", func(t *testing.T) {
		var framed bytes.Buffer
		if err := WriteFrame(&framed, FrameResult, EncodeTagged(1, outBlob)); err != nil {
			t.Fatal(err)
		}
		check(t, "frame", func(r io.Reader) error {
			_, _, err := ReadFrame(r, DefaultMaxFrame)
			return err
		}, framed.Bytes())
	})
}

// TestFrameBounds exercises the frame reader's protocol checks.
func TestFrameBounds(t *testing.T) {
	t.Run("oversized", func(t *testing.T) {
		var b bytes.Buffer
		if err := WriteFrame(&b, FrameInfer, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(b.Bytes()), 512); err == nil {
			t.Fatal("payload above the limit accepted")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		var b bytes.Buffer
		WriteFrame(&b, FrameInfer, []byte("x"))
		raw := b.Bytes()
		raw[0] ^= 0xff
		if _, _, err := ReadFrame(bytes.NewReader(raw), DefaultMaxFrame); err == nil {
			t.Fatal("corrupted magic accepted")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		var b bytes.Buffer
		WriteFrame(&b, FrameInfer, []byte("x"))
		raw := b.Bytes()
		raw[4] = ProtoVersion + 1
		if _, _, err := ReadFrame(bytes.NewReader(raw), DefaultMaxFrame); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
	t.Run("short-payload", func(t *testing.T) {
		var b bytes.Buffer
		WriteFrame(&b, FrameInfer, make([]byte, 100))
		raw := b.Bytes()[:FrameHeaderLen+40] // header promises 100, stream has 40
		if _, _, err := ReadFrame(bytes.NewReader(raw), DefaultMaxFrame); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("malformed-payloads", func(t *testing.T) {
		// Every decoder must reject truncated payloads with an error.
		if _, err := DecodeInfer([]byte{1, 2, 3}); err == nil {
			t.Fatal("short infer payload accepted")
		}
		if _, _, err := DecodeTagged([]byte{1}); err == nil {
			t.Fatal("payload without a request ID accepted")
		}
		if _, _, _, err := DecodeError([]byte{1, 2, 3}); err == nil {
			t.Fatal("short error payload accepted")
		}
		if _, _, err := DecodeSessionID(append(make([]byte, 8), 9, 0, 'x')); err == nil {
			t.Fatal("overlong session-ID length accepted")
		}
		// String length larger than the remaining payload.
		bad := EncodeInfer(1, 0, "session", "model", nil)
		bad[12] = 0xff
		bad[13] = 0xff
		if _, err := DecodeInfer(bad); err == nil {
			t.Fatal("oversized session length accepted")
		}
	})
}
