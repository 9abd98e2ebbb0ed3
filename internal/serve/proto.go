// Package serve implements the Athena inference server: a framed TCP
// protocol over the core wire formats, a session registry keyed by
// uploaded evaluation-key material, a dynamic batcher that coalesces
// concurrent requests into shared-FBS InferBatch rounds, bounded
// admission with explicit backpressure, and a metrics snapshot.
//
// Protocol. Every message is one frame:
//
//	magic(u32 "ASV1") | version(u8) | type(u8) | reserved(u16) | length(u32) | payload[length]
//
// all little-endian. Frames are length-prefixed and bounded (MaxFrame),
// so a reader always knows how many bytes to consume and a slow or
// truncated peer surfaces as an io error/deadline, never a desync. The
// payloads reuse the repository wire formats: a session-open payload
// carries the core.WriteEvalKeys bundle, an inference payload wraps
// core.WriteEncryptedInput bytes, a result wraps
// core.WriteEncryptedLogits bytes.
//
// Every payload starts with a u64 request ID, and a reply carries the
// ID of the request it answers, so one connection multiplexes any mix
// of requests and sessions. ID 0 marks a connection-level error; a peer
// that receives one closes the connection.
//
// Sessions: SessionNew uploads evaluation keys; the session ID is
// content-addressed (hex of the blob's SHA-256 prefix), so re-uploading
// the same material lands on the same session. SessionAttach resolves
// a session by ID. A connection is not bound to a session: every Infer
// frame names its own.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame constants.
const (
	ProtoMagic   uint32 = 0x41535631 // "ASV1"
	ProtoVersion byte   = 2

	// FrameHeaderLen is the fixed frame-header size in bytes.
	FrameHeaderLen = 12

	// DefaultMaxFrame bounds one frame's payload (the session-open
	// key upload is by far the largest message).
	DefaultMaxFrame uint32 = 1 << 30
)

// FrameType tags one protocol message.
type FrameType byte

// Frame types, with their payloads after the request ID.
const (
	FrameSessionNew    FrameType = 1 // client→server: eval-keys blob
	FrameSessionAttach FrameType = 2 // client→server: session ID
	FrameSessionOK     FrameType = 3 // server→client: session ID
	FrameInfer         FrameType = 4 // client→server: deadline | session | model | input
	FrameResult        FrameType = 5 // server→client: encrypted logits
	FrameError         FrameType = 6 // server→client: code | message
	FrameStats         FrameType = 7 // client→server: nothing
	FrameStatsReply    FrameType = 8 // server→client: metrics JSON
	// FrameRedirect is a cluster router's answer to an infer whose
	// session changed owner since the connection attached it: the client
	// re-attaches through the router, which routes to the new owner.
	FrameRedirect FrameType = 9 // router→client: addr | session
)

// ErrCode is a typed protocol error carried by FrameError.
type ErrCode uint16

// Protocol error codes.
const (
	CodeBusy            ErrCode = 1 // admission queue full — retry later
	CodeDeadline        ErrCode = 2 // request deadline expired before evaluation
	CodeSessionNotFound ErrCode = 3 // session in neither tier of the node — re-upload the keys
	CodeModelNotFound   ErrCode = 4 // server does not host the named model
	CodeBadRequest      ErrCode = 5 // malformed frame or payload
	CodeDraining        ErrCode = 6 // server is shutting down
	CodeInternal        ErrCode = 7 // evaluation failed server-side
	// 8 and 10 are unassigned.
	CodeRegistryFull ErrCode = 9 // session cap reached and nothing evictable
	// CodeUnavailable reports a transient cluster fault: the owning node
	// is unreachable or there is no active node for the session. Safe to
	// retry after a backoff.
	CodeUnavailable ErrCode = 11 // owning node unreachable — retry later
)

var codeNames = [...]string{
	CodeBusy: "BUSY", CodeDeadline: "DEADLINE", CodeSessionNotFound: "SESSION_NOT_FOUND",
	CodeModelNotFound: "MODEL_NOT_FOUND", CodeBadRequest: "BAD_REQUEST", CodeDraining: "DRAINING",
	CodeInternal: "INTERNAL", CodeRegistryFull: "REGISTRY_FULL", CodeUnavailable: "UNAVAILABLE",
}

func (c ErrCode) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("ERR_%d", uint16(c))
}

// RequestError is the client-visible form of a FrameError reply.
type RequestError struct {
	Code ErrCode
	Msg  string
}

func (e *RequestError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("serve: %s", e.Code)
	}
	return fmt.Sprintf("serve: %s: %s", e.Code, e.Msg)
}

// WriteFrame writes one frame whose payload is the parts in order, each
// written as is: a large body follows its request ID without a copy.
func WriteFrame(w io.Writer, typ FrameType, payload ...[]byte) error {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	hdr := AppendFrame(make([]byte, 0, FrameHeaderLen), typ, nil)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, p := range payload {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame appends one encoded frame (header + payload) to dst and
// returns the extended buffer. Callers that reuse dst across frames
// write a full connection's traffic with no per-frame allocations; pair
// with a single w.Write of the returned buffer.
//
//lint:noalloc
func AppendFrame(dst []byte, typ FrameType, payload []byte) []byte {
	off := len(dst)
	//lint:prealloc grows the caller's reusable frame buffer, amortized across a connection's writes
	dst = append(dst, make([]byte, FrameHeaderLen)...)
	hdr := dst[off : off+FrameHeaderLen]
	binary.LittleEndian.PutUint32(hdr[0:4], ProtoMagic)
	hdr[4] = ProtoVersion
	hdr[5] = byte(typ)
	hdr[6], hdr[7] = 0, 0
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	//lint:prealloc grows the caller's reusable frame buffer, amortized across a connection's writes
	return append(dst, payload...)
}

// ReadFrame reads one frame, rejecting payloads above maxPayload before
// allocating. A short stream surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxPayload uint32) (FrameType, []byte, error) {
	var arena []byte
	return ReadFrameInto(r, &arena, maxPayload)
}

// ReadFrameInto is ReadFrame reading into a caller-owned arena: the
// returned payload aliases *arena and is valid until the next call with
// the same arena. The arena grows to the largest frame seen and is then
// reused, so a connection's steady-state read loop does not allocate.
// The header itself lands in the arena too — a local array would box
// into the io.Reader argument and put one allocation back per frame.
// io.ReadFull reads exactly the declared length, so a peer can never
// push the reader past the frame boundary.
//
//lint:noalloc
func ReadFrameInto(r io.Reader, arena *[]byte, maxPayload uint32) (FrameType, []byte, error) {
	if cap(*arena) < FrameHeaderLen {
		//lint:prealloc grows the caller's reusable read arena, amortized across a connection's frames
		*arena = make([]byte, FrameHeaderLen)
	}
	hdr := (*arena)[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != ProtoMagic {
		return 0, nil, fmt.Errorf("serve: bad frame magic %#x", m)
	}
	if v := hdr[4]; v != ProtoVersion {
		return 0, nil, fmt.Errorf("serve: unsupported protocol version %d", v)
	}
	typ := FrameType(hdr[5])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("serve: frame payload %d exceeds limit %d", n, maxPayload)
	}
	if uint32(cap(*arena)) < n {
		//lint:prealloc grows the caller's reusable read arena, amortized across a connection's frames
		*arena = make([]byte, n)
	}
	// The header fields are already extracted, so the payload may reuse
	// the arena from offset 0.
	payload := (*arena)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}

// Payload encodings. All multi-byte fields little-endian; strings are
// u16-length-prefixed. Decoders validate every length against the
// remaining payload, so malformed input returns an error — never a
// panic or out-of-range slice.

func appendString(b []byte, s string) []byte {
	//lint:prealloc writes into the caller's buffer; growth is the caller's sizing, not per-op churn
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	//lint:prealloc writes into the caller's buffer; growth is the caller's sizing, not per-op churn
	return append(b, s...)
}

func readString(b []byte) (s string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("serve: truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b)-2 < n {
		return "", nil, fmt.Errorf("serve: string length %d exceeds payload", n)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// EncodeTagged builds the payload of a frame that carries only a body
// after its request ID: SessionNew (the key blob), Result (the logits),
// Stats (nothing) and StatsReply (the JSON document).
func EncodeTagged(reqID uint64, body []byte) []byte {
	b := make([]byte, 0, 8+len(body))
	b = binary.LittleEndian.AppendUint64(b, reqID)
	return append(b, body...)
}

// DecodeTagged splits a payload into its request ID and the body after
// it. Every payload starts with its request ID, so this also reads the
// ID of a frame whose body is decoded elsewhere.
func DecodeTagged(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("serve: payload of %d bytes has no request ID", len(b))
	}
	return binary.LittleEndian.Uint64(b[0:8]), b[8:], nil
}

// InferRequestWire is the decoded form of a FrameInfer payload.
type InferRequestWire struct {
	ReqID      uint64
	DeadlineMS uint32 // 0 = no deadline; relative to server arrival
	Session    string
	Model      string
	Input      []byte // core.WriteEncryptedInput bytes
}

// EncodeInfer builds a FrameInfer payload.
func EncodeInfer(reqID uint64, deadlineMS uint32, session, model string, input []byte) []byte {
	b := make([]byte, 0, 16+len(session)+len(model)+len(input))
	b = binary.LittleEndian.AppendUint64(b, reqID)
	b = binary.LittleEndian.AppendUint32(b, deadlineMS)
	b = appendString(b, session)
	b = appendString(b, model)
	return append(b, input...)
}

// DecodeInfer parses a FrameInfer payload.
func DecodeInfer(b []byte) (InferRequestWire, error) {
	var w InferRequestWire
	if len(b) < 12 {
		return w, fmt.Errorf("serve: truncated inference header")
	}
	w.ReqID = binary.LittleEndian.Uint64(b[0:8])
	w.DeadlineMS = binary.LittleEndian.Uint32(b[8:12])
	var err error
	if w.Session, b, err = readString(b[12:]); err != nil {
		return w, err
	}
	if w.Model, b, err = readString(b); err != nil {
		return w, err
	}
	w.Input = b
	return w, nil
}

// EncodeError builds a FrameError payload. reqID 0 marks a
// connection-level error not tied to one request.
func EncodeError(reqID uint64, code ErrCode, msg string) []byte {
	b := make([]byte, 0, 12+len(msg))
	b = binary.LittleEndian.AppendUint64(b, reqID)
	b = binary.LittleEndian.AppendUint16(b, uint16(code))
	return appendString(b, msg)
}

// DecodeError parses a FrameError payload.
func DecodeError(b []byte) (reqID uint64, code ErrCode, msg string, err error) {
	if len(b) < 10 {
		return 0, 0, "", fmt.Errorf("serve: truncated error header")
	}
	reqID = binary.LittleEndian.Uint64(b[0:8])
	code = ErrCode(binary.LittleEndian.Uint16(b[8:10]))
	msg, _, err = readString(b[10:])
	return reqID, code, msg, err
}

// RedirectError is the client-visible form of a FrameRedirect reply:
// the session is owned by another node. Clients recover by re-attaching
// (a router routes the attach to the new owner); Addr lets a client
// that dials nodes directly go straight there.
type RedirectError struct {
	Addr    string // new owner's serving address
	Session string // the session that moved
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("serve: REDIRECT session %s to %s", e.Session, e.Addr)
}

// EncodeRedirect builds a FrameRedirect payload: the request it
// answers, the new owner's address, and the session that moved.
func EncodeRedirect(reqID uint64, addr, session string) []byte {
	b := make([]byte, 0, 12+len(addr)+len(session))
	b = binary.LittleEndian.AppendUint64(b, reqID)
	b = appendString(b, addr)
	return appendString(b, session)
}

// DecodeRedirect parses a FrameRedirect payload. Malformed input —
// truncated header, over-long strings, trailing bytes — returns an
// error, never a panic.
func DecodeRedirect(b []byte) (reqID uint64, addr, session string, err error) {
	if len(b) < 8 {
		return 0, "", "", fmt.Errorf("serve: truncated redirect header")
	}
	reqID = binary.LittleEndian.Uint64(b[0:8])
	addr, rest, err := readString(b[8:])
	if err != nil {
		return 0, "", "", fmt.Errorf("serve: redirect addr: %w", err)
	}
	session, rest, err = readString(rest)
	if err != nil {
		return 0, "", "", fmt.Errorf("serve: redirect session: %w", err)
	}
	if len(rest) != 0 {
		return 0, "", "", fmt.Errorf("serve: %d trailing bytes after redirect", len(rest))
	}
	return reqID, addr, session, nil
}

// EncodeSessionID builds a FrameSessionAttach / FrameSessionOK payload.
func EncodeSessionID(reqID uint64, id string) []byte {
	return appendString(binary.LittleEndian.AppendUint64(make([]byte, 0, 10+len(id)), reqID), id)
}

// DecodeSessionID parses a session-ID payload.
func DecodeSessionID(b []byte) (reqID uint64, id string, err error) {
	reqID, b, err = DecodeTagged(b)
	if err != nil {
		return 0, "", err
	}
	id, rest, err := readString(b)
	if err != nil {
		return 0, "", err
	}
	if len(rest) != 0 {
		return 0, "", fmt.Errorf("serve: %d trailing bytes after session ID", len(rest))
	}
	return reqID, id, nil
}
