package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/pack"
)

// Evaluation-key material: everything the server side of a deployment
// needs to run EvaluateEncrypted / EvaluateEncryptedBatch, and nothing
// it must not hold. The client generates all keys (NewEngine), exports
// this bundle once (WriteEvalKeys), and the server reconstructs an
// evaluation-only engine from it (NewEvaluationEngine). The bundle is
// public material by construction: BFV evaluation keys, the baby-step
// packing keys (encryptions of the LWE secret), and the N→n LWE
// keyswitching key.

const (
	evalKeysMagic   = 0x4145564b // "AEVK"
	evalKeysVersion = 1
)

// EvalKeys bundles the public evaluation material of one key owner.
type EvalKeys struct {
	KeySet   *bfv.KeySet
	PackDim  int               // LWE dimension n of the packing keys
	PackKeys []*bfv.Ciphertext // baby-step packing keys (see pack.NewPackerFromKeys)
	KSK      *lwe.KeySwitchKey
}

// EvalKeys exports the engine's public evaluation material. The engine
// must hold full key material (i.e. come from NewEngine).
func (e *Engine) EvalKeys() (*EvalKeys, error) {
	if e.ev == nil || e.packBabies == nil || e.ksk == nil {
		return nil, fmt.Errorf("core: engine holds no evaluation keys")
	}
	// packBabies holds the full-level keys; the working packer may run at
	// the reduced FBS level, but the wire always carries the full chain.
	return &EvalKeys{KeySet: e.ev.Keys(), PackDim: e.packN, PackKeys: e.packBabies, KSK: e.ksk}, nil
}

// WriteEvalKeys serializes the engine's evaluation material: a header
// binding the parameter fingerprint, then the BFV key set, the packing
// keys, and the LWE keyswitching key, each in its own wire format. The
// encoding is deterministic, so re-serializing the same keys yields the
// same bytes (the serving layer derives session identity from them).
func (e *Engine) WriteEvalKeys(w io.Writer) error {
	ek, err := e.EvalKeys()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var b [8]byte
	for _, v := range []uint64{evalKeysMagic, evalKeysVersion,
		uint64(e.P.LogN), uint64(len(e.Ctx.Params.Qi)), e.P.T, uint64(ek.PackDim)} {
		binary.LittleEndian.PutUint64(b[:], v)
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := e.Ctx.WriteKeySet(ek.KeySet, w); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[:], uint64(len(ek.PackKeys)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for _, ct := range ek.PackKeys {
		if err := e.Ctx.WriteCiphertext(ct, w); err != nil {
			return err
		}
	}
	return lwe.WriteKeySwitchKey(ek.KSK, w)
}

// EvalKeyCodec decodes evaluation-key bundles for one fixed parameter
// set. Building the codec validates the (trusted, server-local) params
// once; ReadEvalKeys then only parses and validates untrusted bytes —
// the split keeps the wire-facing path free of construction invariants.
// A codec is safe for concurrent use.
type EvalKeyCodec struct {
	e *Engine // parameter shell: context and params, no keys
}

// NewEvalKeyCodec builds a decoder for bundles at params p.
func NewEvalKeyCodec(p Params) (*EvalKeyCodec, error) {
	e, err := newEngineShell(p)
	if err != nil {
		return nil, err
	}
	return &EvalKeyCodec{e: e}, nil
}

// ReadEvalKeys deserializes an evaluation-key bundle. All length fields
// are bounded and every coefficient is range-checked by the underlying
// decoders, so malformed input surfaces as an error, never a panic.
func (c *EvalKeyCodec) ReadEvalKeys(r io.Reader) (*EvalKeys, error) {
	return c.e.readEvalKeys(r)
}

// evalKeyChunk bounds one section read of a random-access bundle: a
// 300 MB key file streams through the decoder in 1 MiB pieces instead
// of materializing a second full copy in memory.
const evalKeyChunk = 1 << 20

// ReadEvalKeysAt decodes a bundle from random-access storage (a stored
// object's file) in bounded chunks. The decoder pulls
// sections on demand, so the bundle never lives twice in memory, and a
// read that fails with no progress is retried once at the same offset
// before the error propagates — a partial read simply resumes at the
// advanced offset on the next pull.
func (c *EvalKeyCodec) ReadEvalKeysAt(ra io.ReaderAt, size int64) (*EvalKeys, error) {
	if size < 0 {
		return nil, fmt.Errorf("core: negative eval-keys size %d", size)
	}
	return c.e.readEvalKeys(&chunkedReaderAt{ra: ra, size: size})
}

// chunkedReaderAt adapts an io.ReaderAt into the sequential reader the
// bundle decoder wants, with bounded section size and one same-offset
// retry. It tracks its own offset, so every Read is independently
// addressed — a transient failure never desynchronizes the stream.
type chunkedReaderAt struct {
	ra   io.ReaderAt
	size int64
	off  int64
}

func (r *chunkedReaderAt) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if want > evalKeyChunk {
		want = evalKeyChunk
	}
	if rem := r.size - r.off; rem < want {
		want = rem
	}
	n, err := r.ra.ReadAt(p[:want], r.off)
	if n == 0 && err != nil {
		// One retry at the same offset: the read made no progress, so
		// reissuing it is exact resumption.
		n, err = r.ra.ReadAt(p[:want], r.off)
	}
	r.off += int64(n)
	if n > 0 {
		// Progress swallows the error; the next Read resumes at the
		// advanced offset and re-surfaces a persistent failure there.
		return n, nil
	}
	return 0, err
}

func (e *Engine) readEvalKeys(r io.Reader) (*EvalKeys, error) {
	br := bufio.NewReader(r)
	var b [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	var hdr [6]uint64
	for i := range hdr {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("core: eval keys header: %w", err)
		}
		hdr[i] = v
	}
	if hdr[0] != evalKeysMagic {
		return nil, fmt.Errorf("core: bad eval-keys magic %#x", hdr[0])
	}
	if hdr[1] != evalKeysVersion {
		return nil, fmt.Errorf("core: unsupported eval-keys version %d", hdr[1])
	}
	if int(hdr[2]) != e.P.LogN || int(hdr[3]) != len(e.Ctx.Params.Qi) ||
		hdr[4] != e.P.T || int(hdr[5]) != e.P.LWEDim {
		return nil, fmt.Errorf("core: eval keys for logN=%d limbs=%d t=%d n=%d, engine expects logN=%d limbs=%d t=%d n=%d",
			hdr[2], hdr[3], hdr[4], hdr[5], e.P.LogN, len(e.Ctx.Params.Qi), e.P.T, e.P.LWEDim)
	}
	ks, err := e.Ctx.ReadKeySet(br)
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	nb, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	want := pack.BabySteps(e.P.LWEDim)
	if int(nb) != want {
		return nil, fmt.Errorf("core: %d packing keys, dimension %d needs %d", nb, e.P.LWEDim, want)
	}
	babies := make([]*bfv.Ciphertext, nb)
	for i := range babies {
		ct, err := e.Ctx.ReadCiphertext(br)
		if err != nil {
			return nil, fmt.Errorf("core: packing key %d: %w", i, err)
		}
		babies[i] = ct
	}
	ksk, err := lwe.ReadKeySwitchKey(br)
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	ek := &EvalKeys{KeySet: ks, PackDim: e.P.LWEDim, PackKeys: babies, KSK: ksk}
	if err := e.validateEvalKeys(ek); err != nil {
		return nil, err
	}
	return ek, nil
}

// validateEvalKeys checks the bundle's cross-component consistency
// against the engine parameters, so a bad upload fails at session open
// rather than mid-inference.
func (e *Engine) validateEvalKeys(ek *EvalKeys) error {
	if ek.KeySet == nil || ek.KeySet.Relin == nil {
		return fmt.Errorf("core: eval keys missing relinearization key")
	}
	if ek.KSK.Q != e.P.QMid() {
		return fmt.Errorf("core: keyswitch key at modulus %d, engine expects qMid=%d", ek.KSK.Q, e.P.QMid())
	}
	if len(ek.KSK.Keys) != e.Ctx.N {
		return fmt.Errorf("core: keyswitch key covers %d ring coefficients, engine expects %d", len(ek.KSK.Keys), e.Ctx.N)
	}
	if len(ek.KSK.Keys) > 0 && len(ek.KSK.Keys[0]) > 0 && len(ek.KSK.Keys[0][0].A) != e.P.LWEDim {
		return fmt.Errorf("core: keyswitch key targets dimension %d, engine expects %d", len(ek.KSK.Keys[0][0].A), e.P.LWEDim)
	}
	return nil
}

// NewEvaluationEngine builds a server-side engine from uploaded
// evaluation material: it can run EvaluateEncrypted and
// EvaluateEncryptedBatch but holds no secret or encryption keys —
// EncryptInput and DecryptLogits return ErrNoSecretKey.
func NewEvaluationEngine(p Params, ek *EvalKeys) (*Engine, error) {
	e, err := newEngineShell(p)
	if err != nil {
		return nil, err
	}
	if err := e.validateEvalKeys(ek); err != nil {
		return nil, err
	}
	if ek.PackDim != p.LWEDim {
		return nil, fmt.Errorf("core: packing keys for dimension %d, params say %d", ek.PackDim, p.LWEDim)
	}
	e.packN, e.packBabies = ek.PackDim, ek.PackKeys
	if err := e.buildPacker(); err != nil {
		return nil, err
	}
	e.s2c, err = pack.CompileTransform(e.ctxP, pack.S2CMatrix(e.ctxP))
	if err != nil {
		return nil, err
	}
	// The packing and S2C rotations are the engine's only automorphism
	// consumers; verify the uploaded set covers them up front.
	for _, g := range pack.DedupGalois(e.packer.GaloisElements(), e.s2c.GaloisElements()) {
		if _, ok := ek.KeySet.Galois[g]; !ok {
			return nil, fmt.Errorf("core: eval keys missing galois element %d", g)
		}
	}
	e.ksk = ek.KSK
	e.finish(ek.KeySet)
	return e, nil
}

// NewEvaluationEngineFromReader is the one-shot server-side path:
// decode an uploaded bundle and stand up the evaluation-only engine.
func NewEvaluationEngineFromReader(p Params, r io.Reader) (*Engine, error) {
	c, err := NewEvalKeyCodec(p)
	if err != nil {
		return nil, err
	}
	ek, err := c.ReadEvalKeys(r)
	if err != nil {
		return nil, err
	}
	return NewEvaluationEngine(p, ek)
}

// ErrNoSecretKey reports a client-side operation attempted on an
// evaluation-only engine.
var ErrNoSecretKey = fmt.Errorf("core: engine holds evaluation keys only (no secret key)")
