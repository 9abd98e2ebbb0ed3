package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"athena/internal/bfv"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/noise"
	"athena/internal/pack"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// plan is the part of an engine that depends on its Params and not on
// its keys: the three bfv contexts, the compiled S2C transform, the
// shared zero, the modulus of the LWE arithmetic, and the memo tables of
// compiled LUTs and shift multipliers. One plan is built per process for
// each Params with Seed cleared and Sigma resolved (planFor) and shared
// by every engine at those parameters, client or evaluation-only, so
// attaching a session is decoding and verifying its keys — nothing here
// is rebuilt.
//
// Sharing is safe because a plan is immutable once newPlan returns: the
// contexts, the transform and the zero are only read (bfv.Context's own
// level cache is locked), and the two memo tables only gain entries,
// each immutable once stored, the first stored winning a race.
type plan struct {
	params Params // Seed cleared, Sigma resolved (planFor): the cache key

	// Ctx is the full-chain context. ctxF is the FBS-level context the
	// packing and LUT ladders run under; ctxP is the post-level context
	// for everything after the LUT (masking, S2C, conv accumulation,
	// extraction). Either may alias Ctx when the schedule keeps the full
	// chain (Params.Levels).
	Ctx  *bfv.Context
	ctxF *bfv.Context
	ctxP *bfv.Context

	s2c *pack.Transform // compiled at ctxP

	// galois lists every Galois element the evaluation reads, in key
	// generation order (the packer's giant steps, then S2C's), each with
	// the level it is read at: ctxF's when the packer reads it, ctxP's
	// when only S2C does. The relinearization key and the packing babies
	// are read at ctxF's level.
	galois []keyUse

	// ks is Step ③'s switch plan: the shape every N→n keyswitch key has,
	// and the NTT at the prime its products are exact at.
	ks *lwe.SwitchPlan

	tMod ring.Modulus // cached Barrett constants for the LWE arithmetic

	// zero is the LWE encryption of 0 every empty packing slot points at.
	// It is shared and read-only (the packer only reads its inputs);
	// code that accumulates into a zero takes its own from zeroLWE.
	zero lwe.Ciphertext

	// margin is E, the bound on |e_ms| a range-sized table is widened by
	// on each side (emsMargin); whole is the centered Z_t, the span of a
	// full table.
	margin int64
	whole  qnn.Interval

	// luts holds the compiled FBS evaluator of every table asked for,
	// keyed by the SHA-256 of its span and its words there
	// (fbs.AppendTable): content keys pin no model.
	lutMu sync.Mutex
	luts  map[[sha256.Size]byte]*fbs.Evaluator

	// shifts caches −X^(N−o) at the post level by window offset o (int →
	// *bfv.PlaintextMul); lanes look it up concurrently.
	shifts sync.Map
}

// plans memoizes one plan per Params with Seed cleared and Sigma
// resolved. A plan whose build failed is remembered with its error: the
// build is a function of the parameters alone.
var plans = struct {
	mu sync.Mutex
	m  map[Params]*planOnce
}{m: map[Params]*planOnce{}}

type planOnce struct {
	once sync.Once
	pl   *plan
	err  error
}

// planFor returns the process's plan for p, building it on first use;
// concurrent first uses of one Params build it once. Params that differ
// only in Seed, or in a Sigma of 0 against ring.DefaultSigma, share it:
// the plan holds σ resolved as bfv resolves it, so the Step ③ key, the
// margin E and the contexts all read one value.
func planFor(p Params) (*plan, error) {
	p.Seed = 0
	if p.Sigma <= 0 {
		p.Sigma = ring.DefaultSigma
	}
	plans.mu.Lock()
	po := plans.m[p]
	if po == nil {
		po = &planOnce{}
		plans.m[p] = po
	}
	plans.mu.Unlock()
	po.once.Do(func() { po.pl, po.err = newPlan(p) })
	return po.pl, po.err
}

// newPlan validates p and builds everything key-independent.
func newPlan(p Params) (*plan, error) {
	bp, err := p.BFVParameters()
	if err != nil {
		return nil, err
	}
	ctx, err := bfv.NewContext(bp)
	if err != nil {
		return nil, err
	}
	if !ctx.Batching() {
		return nil, fmt.Errorf("core: parameters do not support batching (t=%d, N=%d)", p.T, 1<<p.LogN)
	}
	if p.LWEDim > ctx.N/2 || (ctx.N/2)%p.LWEDim != 0 {
		return nil, fmt.Errorf("core: LWE dimension %d must divide N/2=%d", p.LWEDim, ctx.N/2)
	}
	ks, err := lwe.NewSwitchPlan(p.LogN, p.LWEDim, p.QMid(), p.KSBase)
	if err != nil {
		return nil, fmt.Errorf("core: keyswitch base: %w", err)
	}
	pl := &plan{
		params: p,
		Ctx:    ctx,
		ks:     ks,
		tMod:   ring.NewModulus(p.T),
		margin: emsMargin(p, ks.Digits),
		luts:   map[[sha256.Size]byte]*fbs.Evaluator{},
	}
	pl.whole = pl.domain(qnn.Interval{Lo: -int64(p.T), Hi: int64(p.T)}, 0)
	pl.zero = pl.zeroLWE()
	fbsL, postL := p.Levels()
	if pl.ctxF, err = ctx.AtLevel(fbsL); err != nil {
		return nil, fmt.Errorf("core: FBS level: %w", err)
	}
	if pl.ctxP, err = ctx.AtLevel(postL); err != nil {
		return nil, fmt.Errorf("core: post level: %w", err)
	}
	if pl.s2c, err = pack.CompileTransform(pl.ctxP, pack.S2CMatrix(pl.ctxP)); err != nil {
		return nil, err
	}
	pl.galois = galoisUses(p)
	return pl, nil
}

// keyUse is one Galois key the evaluation reads and the level it reads
// it at.
type keyUse struct {
	g     uint64
	level int
}

// galoisUses lists the Galois keys an engine at p reads, from the
// parameters alone: the packer's rotation at the FBS level, then S2C's
// elements not already listed at the post level.
func galoisUses(p Params) []keyUse {
	n := 1 << p.LogN
	fbsL, postL := p.Levels()
	// The merged list opens with the packer's own, deduplicated: the
	// first len(packEls) elements are the ones read at the FBS level.
	packEls := pack.DedupGalois(pack.GaloisElements(n, p.LWEDim))
	var uses []keyUse
	for i, g := range pack.DedupGalois(packEls, pack.TransformGaloisElements(n)) {
		u := keyUse{g: g, level: postL}
		if i < len(packEls) {
			u.level = fbsL
		}
		uses = append(uses, u)
	}
	return uses
}

// ReadEvalKeys decodes an evaluation-key bundle for parameters p. All
// length fields are bounded and every coefficient is range-checked by
// the underlying decoders, so malformed input surfaces as an error,
// never a panic. The decoder is the shared plan's: the parameters are
// the server's own, and only the bytes are untrusted.
func ReadEvalKeys(p Params, r io.Reader) (*EvalKeys, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	return pl.readEvalKeys(r)
}

// ReadEvalKeysAt decodes a bundle for parameters p from random-access
// storage (a stored object's file) in bounded chunks. The decoder pulls
// sections on demand, so the bundle never lives twice in memory, and a
// read that fails with no progress is retried once at the same offset
// before the error propagates — a partial read simply resumes at the
// advanced offset on the next pull.
func ReadEvalKeysAt(p Params, ra io.ReaderAt, size int64) (*EvalKeys, error) {
	if size < 0 {
		return nil, fmt.Errorf("core: negative eval-keys size %d", size)
	}
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	return pl.readEvalKeys(&chunkedReaderAt{ra: ra, size: size})
}

func (pl *plan) zeroLWE() lwe.Ciphertext {
	return lwe.Ciphertext{A: make([]uint64, pl.params.LWEDim), B: 0, Q: pl.params.T}
}

// emsFailLog2 is log₂ of the probability with which one extracted value
// may carry an e_ms beyond the margin E: 2⁻⁴⁰.
const emsFailLog2 = -40

// emsMargin returns E = ⌈z·σ⌉, the bound on |e_ms| — the error an
// extracted value carries into the table that reads it — that a value
// exceeds with probability at most 2^emsFailLog2, for σ the width of
// e_ms at p: noise.EmsSigma's terms (the key's error and the rounding of
// the switch from qMid to t against the dimension-n secret) and the ring
// switch's digit term at qMid (noise.SwitchDigitSigma), which the switch
// to t divides by 2^MidExp.
func emsMargin(p Params, digits int) int64 {
	logT := bits.Len64(p.T)
	ms := noise.EmsSigma(p.LWEDim, p.Sigma, logT+int(p.MidExp), logT)
	ks := noise.SwitchDigitSigma(1<<p.LogN, digits, p.KSBase, p.Sigma) / math.Exp2(float64(p.MidExp))
	return int64(math.Ceil(noise.TailZ(math.Exp2(emsFailLog2)) * math.Hypot(ms, ks)))
}

// EmsMargin returns the margin E every range-sized table of the engine
// is widened by on each side of its proven interval (emsMargin).
func (e *Engine) EmsMargin() int64 { return e.margin }

// domain returns the span (fbs.Span) of iv widened by e on each side: the
// inputs a table reading values of iv, each carrying at most e of noise,
// is evaluated on.
func (pl *plan) domain(iv qnn.Interval, e int64) qnn.Interval {
	lo, hi := fbs.Span(pl.params.T, iv.Lo-e, iv.Hi+e)
	return qnn.Interval{Lo: lo, Hi: hi}
}

// compiled returns the evaluator stored under key, the SHA-256 of the
// table of f on span (evalWorker.lut), compiling that table on the first
// request. Lanes racing on a miss compile the same table; the first
// stored is kept.
func (pl *plan) compiled(key [sha256.Size]byte, span qnn.Interval, f func(int64) int64) (*fbs.Evaluator, error) {
	pl.lutMu.Lock()
	ev := pl.luts[key]
	pl.lutMu.Unlock()
	if ev != nil {
		return ev, nil
	}
	lut, err := fbs.NewRangeLUT(pl.params.T, span.Lo, span.Hi, f)
	if err != nil {
		return nil, err
	}
	if ev, err = fbs.NewEvaluator(pl.ctxF, lut); err != nil {
		return nil, err
	}
	pl.lutMu.Lock()
	defer pl.lutMu.Unlock()
	if kept := pl.luts[key]; kept != nil {
		return kept, nil
	}
	pl.luts[key] = ev
	return ev, nil
}

// shiftFor returns (and caches) the post-level multiplier −X^(N−o), which
// moves coefficients [o, N) of a polynomial down to [0, N−o): X^o times
// it is −X^N = 1. A monomial is a signed permutation of the coefficients
// (‖·‖₁ = 1), so the product changes no noise magnitude and needs no key.
func (pl *plan) shiftFor(o int) *bfv.PlaintextMul {
	if pm, ok := pl.shifts.Load(o); ok {
		return pm.(*bfv.PlaintextMul)
	}
	// Lanes racing here build the same multiplier; the first stored is
	// kept. Lifting reads only the context, so a throwaway encoder will do.
	cod := bfv.NewEncoder(pl.ctxP)
	pt := pl.ctxP.NewPlaintext()
	pt.Coeffs[pl.Ctx.N-o] = pl.params.T - 1
	kept, _ := pl.shifts.LoadOrStore(o, cod.LiftToMul(pt))
	return kept.(*bfv.PlaintextMul)
}
