package serve

import (
	"bytes"
	"testing"
)

// wellFormedFrames is one encoded frame of every frame type.
func wellFormedFrames() map[string][]byte {
	const session = "00112233445566778899aabbccddeeff"
	return map[string][]byte{
		"session_new":    AppendFrame(nil, FrameSessionNew, EncodeTagged(1, []byte("eval-keys bundle"))),
		"session_attach": AppendFrame(nil, FrameSessionAttach, EncodeSessionID(2, session)),
		"session_ok":     AppendFrame(nil, FrameSessionOK, EncodeSessionID(2, session)),
		"infer":          AppendFrame(nil, FrameInfer, EncodeInfer(3, 250, session, "demo", []byte("ciphertexts"))),
		"result":         AppendFrame(nil, FrameResult, EncodeTagged(3, []byte("logits"))),
		"error":          AppendFrame(nil, FrameError, EncodeError(3, CodeSessionNotFound, "unknown session")),
		"stats":          AppendFrame(nil, FrameStats, EncodeTagged(4, nil)),
		"stats_reply":    AppendFrame(nil, FrameStatsReply, EncodeTagged(4, []byte(`{"connections":1}`))),
		"redirect":       AppendFrame(nil, FrameRedirect, EncodeRedirect(5, "10.0.0.7:7700", session)),
	}
}

// FuzzFrames: arbitrary bytes through the frame reader and every
// payload decoder must yield an error or a value that re-encodes to the
// bytes it was read from — never a panic, and never an allocation a
// frame header merely asks for. testdata/fuzz holds one well-formed
// frame of every type.
func FuzzFrames(f *testing.F) {
	for _, frame := range wellFormedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var arena []byte
		_, payload, err := ReadFrameInto(bytes.NewReader(data), &arena, 1<<16)
		if err == nil && len(payload) > len(data)-FrameHeaderLen {
			t.Fatalf("payload of %d bytes from %d bytes of input", len(payload), len(data))
		}
		for _, b := range [][]byte{payload, data} {
			checkDecoders(t, b)
		}
	})
}

// checkDecoders runs every payload decoder on b and checks each value
// it accepts against its encoder.
func checkDecoders(t *testing.T, b []byte) {
	t.Helper()
	same := func(name string, enc []byte) {
		if !bytes.Equal(enc, b) {
			t.Fatalf("%s: decoded %x re-encodes to %x", name, b, enc)
		}
	}
	if id, body, err := DecodeTagged(b); err == nil {
		same("tagged", EncodeTagged(id, body))
	}
	if id, session, err := DecodeSessionID(b); err == nil {
		same("session ID", EncodeSessionID(id, session))
	}
	if w, err := DecodeInfer(b); err == nil {
		same("infer", EncodeInfer(w.ReqID, w.DeadlineMS, w.Session, w.Model, w.Input))
	}
	if id, addr, session, err := DecodeRedirect(b); err == nil {
		same("redirect", EncodeRedirect(id, addr, session))
	}
	// An error payload may carry bytes after its message.
	if id, code, msg, err := DecodeError(b); err == nil {
		if enc := EncodeError(id, code, msg); !bytes.HasPrefix(b, enc) {
			t.Fatalf("error: decoded %x re-encodes to %x", b, enc)
		}
	}
}
