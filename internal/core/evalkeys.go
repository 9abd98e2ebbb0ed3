package core

import (
	"bufio"
	"fmt"
	"io"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/ring"
)

// Evaluation-key material: everything the server side of a deployment
// needs to run EvaluateEncrypted / EvaluateEncryptedBatch, and nothing
// it must not hold. The client generates all keys (NewEngine), exports
// this bundle once (WriteEvalKeys), and the server reconstructs an
// evaluation-only engine from it (NewEvaluationEngine). The bundle is
// public material by construction: BFV evaluation keys, the baby-step
// packing keys (encryptions of the LWE secret), and the N→n LWE
// keyswitching key.
//
// Every key travels at the level that reads it (keysAtUse): the
// relinearization key, the packer's Galois keys and the babies at the
// FBS level, Galois keys only S2C reads at the post level. The reader
// takes any level from 1 to the full chain and rejects only a key below
// its level of use, so a bundle of full-chain keys — the layout written
// before keys were cut to their level — still loads.

const (
	evalKeysMagic   = 0x4145564b // "AEVK"
	evalKeysVersion = 1

	// evalKeysHeaderWords is the length of writeEvalKeys' header.
	evalKeysHeaderWords = 6
)

// EvalKeys bundles the public evaluation material of one key owner.
type EvalKeys struct {
	KeySet   *bfv.KeySet
	PackDim  int               // LWE dimension n of the packing keys
	PackKeys []*bfv.Ciphertext // baby-step packing keys (see pack.NewPackerFromKeys)
	KSK      *lwe.KeySwitchKey
}

// KeyLevelError reports an evaluation key that is absent, or held at
// fewer limbs than the level the evaluation reads it at: a bundle that
// cannot be evaluated, refused when the session opens rather than
// panicking mid-inference.
type KeyLevelError struct {
	Key   string // "relinearization key", "galois key 5", "packing key 0"
	Level int    // the key's level in the bundle; 0 when it is absent
	Need  int    // the level the evaluation reads it at
}

func (e *KeyLevelError) Error() string {
	if e.Level == 0 {
		return fmt.Sprintf("core: eval keys missing %s (read at level %d)", e.Key, e.Need)
	}
	return fmt.Sprintf("core: eval keys hold %s at level %d, evaluation reads it at level %d", e.Key, e.Level, e.Need)
}

// EvalKeys exports the engine's public evaluation material, each key at
// its level of use. The engine must hold evaluation keys (NewEngine or
// NewEvaluationEngine).
func (e *Engine) EvalKeys() (*EvalKeys, error) {
	if e.ev == nil || e.packer == nil || e.ksk == nil {
		return nil, fmt.Errorf("core: engine holds no evaluation keys")
	}
	n, babies := e.packer.Keys()
	return &EvalKeys{KeySet: e.ev.Keys(), PackDim: n, PackKeys: babies, KSK: e.ksk}, nil
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
	return e.writeEvalKeys(ek, w)
}

// EvalKeysSize returns the length of the bundle WriteEvalKeys writes,
// counted from the keys' shapes: the key material the engine holds,
// each key at its level of use, whatever level its keys arrived at. A
// server charges a session this much memory, so a full-chain bundle
// costs what its cut keys hold.
func (e *Engine) EvalKeysSize() (int64, error) {
	ek, err := e.EvalKeys()
	if err != nil {
		return 0, err
	}
	n := 8*int64(evalKeysHeaderWords+1) + bfv.KeySetWireSize(ek.KeySet) + ek.KSK.WireSize()
	for _, ct := range ek.PackKeys {
		n += bfv.CiphertextWireSize(ct)
	}
	return n, nil
}

// writeEvalKeys serializes ek at whatever levels its keys hold.
func (pl *plan) writeEvalKeys(ek *EvalKeys, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := ring.WriteWords(bw, evalKeysMagic, evalKeysVersion,
		uint64(pl.params.LogN), uint64(len(pl.Ctx.Params.Qi)), pl.params.T, uint64(ek.PackDim)); err != nil {
		return err
	}
	if err := pl.Ctx.WriteKeySet(ek.KeySet, bw); err != nil {
		return err
	}
	if err := ring.WriteWords(bw, uint64(len(ek.PackKeys))); err != nil {
		return err
	}
	for _, ct := range ek.PackKeys {
		if err := pl.Ctx.WriteCiphertext(ct, bw); err != nil {
			return err
		}
	}
	if err := lwe.WriteKeySwitchKey(ek.KSK, bw); err != nil {
		return err
	}
	return bw.Flush()
}

// keysAtUse returns ek with every key cut to the level that reads it
// (plan.galois): the relinearization key and the packer's Galois keys to
// ctxF's level, keys only S2C reads to ctxP's, the babies ModDown'd to
// ctxF's. A key already at its level is kept as it is; a Galois key the
// evaluation does not read is dropped. ek must pass validateEvalKeys.
func (pl *plan) keysAtUse(ek *EvalKeys) (*EvalKeys, error) {
	fbsL := pl.ctxF.Level()
	ks := &bfv.KeySet{
		Relin:  &bfv.RelinearizationKey{SwitchingKey: ek.KeySet.Relin.AtLevel(fbsL)},
		Galois: make(map[uint64]*bfv.GaloisKey, len(pl.galois)),
	}
	for _, u := range pl.galois {
		gk := ek.KeySet.Galois[u.g]
		if gk.Level() > u.level {
			gk = &bfv.GaloisKey{GaloisEl: u.g, SwitchingKey: gk.AtLevel(u.level)}
		}
		ks.Galois[u.g] = gk
	}
	babies := make([]*bfv.Ciphertext, len(ek.PackKeys))
	for i, b := range ek.PackKeys {
		var err error
		if babies[i], err = pl.Ctx.ModDown(b, fbsL); err != nil {
			return nil, err
		}
	}
	return &EvalKeys{KeySet: ks, PackDim: ek.PackDim, PackKeys: babies, KSK: ek.KSK}, nil
}

// evalKeyChunk bounds one section read of a random-access bundle: a
// 300 MB key file streams through the decoder in 1 MiB pieces instead
// of materializing a second full copy in memory.
const evalKeyChunk = 1 << 20

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

// readEvalKeys decodes a bundle at the plan's parameters.
func (pl *plan) readEvalKeys(r io.Reader) (*EvalKeys, error) {
	br := bufio.NewReader(r)
	wr := ring.WordReader{R: br}
	p := pl.params
	var hdr [6]uint64
	if err := wr.Words(hdr[:]); err != nil {
		return nil, fmt.Errorf("core: eval keys header: %w", err)
	}
	if hdr[0] != evalKeysMagic {
		return nil, fmt.Errorf("core: bad eval-keys magic %#x", hdr[0])
	}
	if hdr[1] != evalKeysVersion {
		return nil, fmt.Errorf("core: unsupported eval-keys version %d", hdr[1])
	}
	if int(hdr[2]) != p.LogN || int(hdr[3]) != len(pl.Ctx.Params.Qi) ||
		hdr[4] != p.T || int(hdr[5]) != p.LWEDim {
		return nil, fmt.Errorf("core: eval keys for logN=%d limbs=%d t=%d n=%d, engine expects logN=%d limbs=%d t=%d n=%d",
			hdr[2], hdr[3], hdr[4], hdr[5], p.LogN, len(pl.Ctx.Params.Qi), p.T, p.LWEDim)
	}
	ks, err := pl.Ctx.ReadKeySet(br)
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	nb, err := wr.Word()
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	want := pack.BabySteps(p.LWEDim)
	if nb != uint64(want) {
		return nil, fmt.Errorf("core: %d packing keys, dimension %d needs %d", nb, p.LWEDim, want)
	}
	babies := make([]*bfv.Ciphertext, nb)
	for i := range babies {
		ct, err := pl.Ctx.ReadCiphertext(br)
		if err != nil {
			return nil, fmt.Errorf("core: packing key %d: %w", i, err)
		}
		babies[i] = ct
	}
	ksk, err := lwe.ReadKeySwitchKey(br, pl.ksk)
	if err != nil {
		return nil, fmt.Errorf("core: eval keys: %w", err)
	}
	ek := &EvalKeys{KeySet: ks, PackDim: p.LWEDim, PackKeys: babies, KSK: ksk}
	if err := pl.validateEvalKeys(ek); err != nil {
		return nil, err
	}
	return ek, nil
}

// validateEvalKeys checks the bundle's cross-component consistency
// against the plan, so a bad upload fails at session open rather than
// mid-inference: every key the evaluation reads is present at or above
// the level it is read at.
func (pl *plan) validateEvalKeys(ek *EvalKeys) error {
	if ek.KSK == nil || ek.KSK.Shape() != pl.ksk {
		return fmt.Errorf("core: keyswitch key does not have the shape %+v the parameters fix", pl.ksk)
	}
	if ek.PackDim != pl.params.LWEDim {
		return fmt.Errorf("core: packing keys for dimension %d, params say %d", ek.PackDim, pl.params.LWEDim)
	}
	fbsL := pl.ctxF.Level()
	if ek.KeySet == nil {
		return &KeyLevelError{Key: "relinearization key", Need: fbsL}
	}
	relin := 0
	if ek.KeySet.Relin != nil {
		relin = ek.KeySet.Relin.Level()
	}
	if relin < fbsL {
		return &KeyLevelError{Key: "relinearization key", Level: relin, Need: fbsL}
	}
	for _, u := range pl.galois {
		l := 0
		if gk := ek.KeySet.Galois[u.g]; gk != nil {
			l = gk.Level()
		}
		if l < u.level {
			return &KeyLevelError{Key: fmt.Sprintf("galois key %d", u.g), Level: l, Need: u.level}
		}
	}
	for i, b := range ek.PackKeys {
		l := 0
		if b != nil {
			l = b.Level()
		}
		if l < fbsL {
			return &KeyLevelError{Key: fmt.Sprintf("packing key %d", i), Level: l, Need: fbsL}
		}
	}
	return nil
}

// NewEvaluationEngine builds a server-side engine from uploaded
// evaluation material: it can run EvaluateEncrypted and
// EvaluateEncryptedBatch but holds no secret or encryption keys —
// EncryptInput and DecryptLogits return ErrNoSecretKey. A key below its
// level of use is a *KeyLevelError; a key above it is cut to it, so the
// engine holds only what the evaluation reads.
func NewEvaluationEngine(p Params, ek *EvalKeys) (*Engine, error) {
	e, err := newEngine(p)
	if err != nil {
		return nil, err
	}
	if err := e.validateEvalKeys(ek); err != nil {
		return nil, err
	}
	use, err := e.keysAtUse(ek)
	if err != nil {
		return nil, err
	}
	if err := e.install(use); err != nil {
		return nil, err
	}
	return e, nil
}

// NewEvaluationEngineFromReader is the one-shot server-side path:
// decode an uploaded bundle and stand up the evaluation-only engine.
func NewEvaluationEngineFromReader(p Params, r io.Reader) (*Engine, error) {
	ek, err := ReadEvalKeys(p, r)
	if err != nil {
		return nil, err
	}
	return NewEvaluationEngine(p, ek)
}

// ErrNoSecretKey reports a client-side operation attempted on an
// evaluation-only engine.
var ErrNoSecretKey = fmt.Errorf("core: engine holds evaluation keys only (no secret key)")
