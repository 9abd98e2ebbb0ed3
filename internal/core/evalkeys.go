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
	if err := ring.WriteWords(bw, evalKeysMagic, evalKeysVersion,
		uint64(e.P.LogN), uint64(len(e.Ctx.Params.Qi)), e.P.T, uint64(ek.PackDim)); err != nil {
		return err
	}
	if err := e.Ctx.WriteKeySet(ek.KeySet, bw); err != nil {
		return err
	}
	if err := ring.WriteWords(bw, uint64(len(ek.PackKeys))); err != nil {
		return err
	}
	for _, ct := range ek.PackKeys {
		if err := e.Ctx.WriteCiphertext(ct, bw); err != nil {
			return err
		}
	}
	if err := lwe.WriteKeySwitchKey(ek.KSK, bw); err != nil {
		return err
	}
	return bw.Flush()
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
// mid-inference.
func (pl *plan) validateEvalKeys(ek *EvalKeys) error {
	if ek.KeySet == nil || ek.KeySet.Relin == nil {
		return fmt.Errorf("core: eval keys missing relinearization key")
	}
	if ek.KSK == nil || ek.KSK.Shape() != pl.ksk {
		return fmt.Errorf("core: keyswitch key does not have the shape %+v the parameters fix", pl.ksk)
	}
	return nil
}

// NewEvaluationEngine builds a server-side engine from uploaded
// evaluation material: it can run EvaluateEncrypted and
// EvaluateEncryptedBatch but holds no secret or encryption keys —
// EncryptInput and DecryptLogits return ErrNoSecretKey.
func NewEvaluationEngine(p Params, ek *EvalKeys) (*Engine, error) {
	e, err := newEngine(p)
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
	ek, err := ReadEvalKeys(p, r)
	if err != nil {
		return nil, err
	}
	return NewEvaluationEngine(p, ek)
}

// ErrNoSecretKey reports a client-side operation attempted on an
// evaluation-only engine.
var ErrNoSecretKey = fmt.Errorf("core: engine holds evaluation keys only (no secret key)")
