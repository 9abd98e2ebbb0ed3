package core

import (
	"fmt"
	"sort"
	"sync"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/par"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// Engine holds all key material and compiled transforms for running
// quantized networks under FHE. In a deployment the secret key and
// decryptor live with the client and everything else with the server;
// the engine keeps both sides for end-to-end evaluation.
type Engine struct {
	P   Params
	Ctx *bfv.Context

	// Level schedule (Params.Levels): ctxF is the FBS-level context the
	// packing and LUT ladders run under; ctxP is the post-level context
	// for everything after the LUT (masking, S2C, conv accumulation,
	// extraction). Either may alias Ctx when the schedule keeps the full
	// chain.
	ctxF *bfv.Context
	ctxP *bfv.Context

	sk   *bfv.SecretKey
	enc  *bfv.Encryptor
	dec  *bfv.Decryptor
	ev   *bfv.Evaluator // FBS-level evaluator (ctxF)
	evP  *bfv.Evaluator // post-level evaluator (ctxP)
	cod  *bfv.Encoder   // full-level encoder (client-side encode/decode)
	codP *bfv.Encoder   // post-level encoder (lifts for post-level products)

	lweSK  *lwe.SecretKey    // dimension n secret (client side)
	ksk    *lwe.KeySwitchKey // ring-degree -> n at qMid
	packer *pack.Packer      // working packer at ctxF (ModDown'd babies)
	s2c    *pack.Transform   // compiled at ctxP

	// Full-level packing keys as generated/received: the wire format
	// (EvalKeys) always carries full-chain babies, the working packer is
	// rebuilt at ctxF from them.
	packN      int
	packBabies []*bfv.Ciphertext

	luts  map[*qnn.QConv]*fbs.Evaluator
	relus map[int]*fbs.Evaluator // post-add ReLU-clamp by ActBits
	divs  map[int]*fbs.Evaluator // avg-pool divide by k²

	// lutMu guards the three LUT caches above: pooled lanes compile and
	// look up evaluators concurrently during batched inference.
	lutMu sync.Mutex

	// shifts caches −X^(N−o) at the post level by window offset o (int →
	// *bfv.PlaintextMul); lanes look it up concurrently.
	shifts sync.Map

	// w0 is the top-level evaluation worker (wrapping e.ev); lanes holds
	// the ShallowCopy'd workers the operator-level fan-outs run on.
	w0    *evalWorker
	lanes *par.Pool[*evalWorker]

	tMod ring.Modulus // cached Barrett constants for the LWE arithmetic

	// zero is the LWE encryption of 0 every empty packing slot points at.
	// It is shared and read-only (the packer only reads its inputs);
	// code that accumulates into a zero takes its own from zeroLWE.
	zero lwe.Ciphertext

	// Stats accumulates operation counts over Infer calls.
	Stats OpStats
}

// OpStats counts homomorphic operations issued by the engine. It is the
// one counter type of the repository: engine totals, per-batch deltas,
// and the "ops" object of the /metrics and router-aggregate documents.
type OpStats struct {
	PMult       int `json:"pmult"`
	HAdd        int `json:"hadd"`
	CMult       int `json:"cmult"`
	SMult       int `json:"smult"`
	Packs       int `json:"packs"`
	FBSCalls    int `json:"fbs_calls"`
	FBSInputs   int `json:"fbs_inputs"` // valid slots fed to LUT rounds: fill = FBSInputs / (FBSCalls·N)
	S2CCalls    int `json:"s2c_calls"`
	Extractions int `json:"extractions"`
	KeySwitches int `json:"key_switches"`
	LWEAdds     int `json:"lwe_adds"`
}

// addScaled adds k·o to s; it holds the only list of the counters.
func (s *OpStats) addScaled(o OpStats, k int) {
	s.PMult += k * o.PMult
	s.HAdd += k * o.HAdd
	s.CMult += k * o.CMult
	s.SMult += k * o.SMult
	s.Packs += k * o.Packs
	s.FBSCalls += k * o.FBSCalls
	s.FBSInputs += k * o.FBSInputs
	s.S2CCalls += k * o.S2CCalls
	s.Extractions += k * o.Extractions
	s.KeySwitches += k * o.KeySwitches
	s.LWEAdds += k * o.LWEAdds
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) { s.addScaled(o, 1) }

// Sub returns s − o, the counts issued between two readings of a
// cumulative total.
func (s OpStats) Sub(o OpStats) OpStats {
	s.addScaled(o, -1)
	return s
}

// NewEngine generates all key material for params.
func NewEngine(p Params) (*Engine, error) {
	e, err := newEngineShell(p)
	if err != nil {
		return nil, err
	}
	ctx := e.Ctx
	kg := bfv.NewKeyGenerator(ctx, p.Seed)
	e.sk = kg.GenSecretKey()
	pk := kg.GenPublicKey(e.sk)
	e.enc = bfv.NewEncryptor(ctx, pk, p.Seed^0xeac7)
	e.dec = bfv.NewDecryptor(ctx, e.sk)

	// LWE material: the ring secret's coefficient vector is the
	// extraction-side key; a fresh dimension-n key receives it.
	e.lweSK = lwe.NewSecretKey(p.LWEDim, p.Seed^0x17e)
	ringSK := &lwe.SecretKey{S: e.sk.Signed}
	e.ksk = lwe.NewKeySwitchKey(ringSK, e.lweSK, p.QMid(), p.KSBase, p.Sigma, p.Seed^0x55)

	// Packing keys are generated (and exported) at the full chain; the
	// working packer runs at the FBS level, so rebuild it from ModDown'd
	// babies.
	pkFull, err := pack.NewPacker(ctx, e.enc, e.lweSK)
	if err != nil {
		return nil, err
	}
	e.packN, e.packBabies = pkFull.Keys()
	if err := e.buildPacker(); err != nil {
		return nil, err
	}
	e.s2c, err = pack.CompileTransform(e.ctxP, pack.S2CMatrix(e.ctxP))
	if err != nil {
		return nil, err
	}

	els := pack.DedupGalois(e.packer.GaloisElements(), e.s2c.GaloisElements())
	keys := kg.GenKeySet(e.sk, els)
	e.finish(keys)
	return e, nil
}

// newEngineShell validates params and builds the keyless engine frame
// shared by the client-side (NewEngine) and server-side
// (NewEvaluationEngine) constructors.
func newEngineShell(p Params) (*Engine, error) {
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
	e := &Engine{
		P:     p,
		Ctx:   ctx,
		luts:  make(map[*qnn.QConv]*fbs.Evaluator),
		relus: make(map[int]*fbs.Evaluator),
		divs:  make(map[int]*fbs.Evaluator),
	}
	e.zero = e.zeroLWE()
	fbsL, postL := p.Levels()
	if e.ctxF, err = ctx.AtLevel(fbsL); err != nil {
		return nil, fmt.Errorf("core: FBS level: %w", err)
	}
	if e.ctxP, err = ctx.AtLevel(postL); err != nil {
		return nil, fmt.Errorf("core: post level: %w", err)
	}
	e.tMod = ring.NewModulus(p.T)
	e.cod = bfv.NewEncoder(ctx)
	e.codP = bfv.NewEncoder(e.ctxP)
	return e, nil
}

// buildPacker constructs the working packer at the FBS level from the
// full-chain packing keys in packN/packBabies. At the full level the
// babies are used as-is; otherwise each is rescaled once at setup — the
// one-time cost that makes every subsequent Pack run on fewer limbs.
func (e *Engine) buildPacker() error {
	babies := e.packBabies
	if e.ctxF != e.Ctx {
		down := make([]*bfv.Ciphertext, len(babies))
		for i, b := range babies {
			var err error
			if down[i], err = e.Ctx.ModDown(b, e.ctxF.Level()); err != nil {
				return err
			}
		}
		babies = down
	}
	var err error
	e.packer, err = pack.NewPackerFromKeys(e.ctxF, e.packN, babies)
	return err
}

// finish installs the evaluation keys and builds the worker group; the
// packer, keyswitch key, and S2C transform must already be in place.
func (e *Engine) finish(keys *bfv.KeySet) {
	// Two evaluators per worker, one per schedule level; both read the
	// same full-chain key set (the ring kernels only touch the prefix
	// limbs of key polynomials, and reduced contexts carry the corrected
	// keyswitch digit constants).
	e.ev = bfv.NewEvaluator(e.ctxF, keys)
	e.evP = bfv.NewEvaluator(e.ctxP, keys)
	e.w0 = e.newWorker(e.ev, e.evP, e.codP, true)
	e.lanes = par.NewPool(func() *evalWorker {
		// newWorker only wraps the freshly forked evaluators and a brand-new
		// encoder in a per-lane struct; it reads no mutable Engine scratch,
		// and par.Pool serializes mk under its own mutex.
		//lint:allow scratchalias newWorker allocates per-lane state from a fresh ShallowCopy; no shared scratch is touched
		return e.newWorker(e.ev.ShallowCopy(), e.evP.ShallowCopy(), bfv.NewEncoder(e.ctxP), false)
	})
}

// vkey identifies one activation value in (channel, y, x) coordinates.
type vkey struct{ C, Y, X int }

// valSet is the inter-layer state: labeled LWE ciphertexts at modulus t
// carrying the previous layer's raw accumulators, with that layer's
// fused LUT still pending.
type valSet struct {
	C, H, W int
	vals    map[vkey]lwe.Ciphertext
	pending *fbs.Evaluator    // nil = values are already materialized
	fn      func(int64) int64 // plaintext shadow of pending (nil = identity)
}

func (e *Engine) zeroLWE() lwe.Ciphertext {
	return lwe.Ciphertext{A: make([]uint64, e.P.LWEDim), B: 0, Q: e.P.T}
}

// lutFor compiles (and caches) the FBS evaluator of a conv's fused remap.
func (e *Engine) lutFor(q *qnn.QConv) (*fbs.Evaluator, error) {
	e.lutMu.Lock()
	defer e.lutMu.Unlock()
	if ev, ok := e.luts[q]; ok {
		return ev, nil
	}
	if q.MaxAcc >= int64(e.P.T/2) {
		return nil, fmt.Errorf("core: %s accumulator bound %d exceeds t/2 = %d", q.OpName(), q.MaxAcc, e.P.T/2)
	}
	l := fbs.NewLUT(e.P.T, q.Remap)
	ev, err := fbs.NewEvaluator(e.ctxF, l)
	if err != nil {
		return nil, err
	}
	e.luts[q] = ev
	return ev, nil
}

func (e *Engine) reluClampFor(actBits int) (*fbs.Evaluator, error) {
	e.lutMu.Lock()
	defer e.lutMu.Unlock()
	if ev, ok := e.relus[actBits]; ok {
		return ev, nil
	}
	lim := int64(1)<<(actBits-1) - 1
	l := fbs.NewLUT(e.P.T, func(x int64) int64 {
		if x < 0 {
			return 0
		}
		if x > lim {
			return lim
		}
		return x
	})
	ev, err := fbs.NewEvaluator(e.ctxF, l)
	if err != nil {
		return nil, err
	}
	e.relus[actBits] = ev
	return ev, nil
}

func (e *Engine) divideFor(kk int) (*fbs.Evaluator, error) {
	e.lutMu.Lock()
	defer e.lutMu.Unlock()
	if ev, ok := e.divs[kk]; ok {
		return ev, nil
	}
	l := fbs.NewLUT(e.P.T, func(x int64) int64 { return roundDiv(x, int64(kk)) })
	ev, err := fbs.NewEvaluator(e.ctxF, l)
	if err != nil {
		return nil, err
	}
	e.divs[kk] = ev
	return ev, nil
}

// shiftFor returns (and caches) the post-level multiplier −X^(N−o), which
// moves coefficients [o, N) of a polynomial down to [0, N−o): X^o times
// it is −X^N = 1. A monomial is a signed permutation of the coefficients
// (‖·‖₁ = 1), so the product changes no noise magnitude and needs no key.
func (e *Engine) shiftFor(o int) *bfv.PlaintextMul {
	if pm, ok := e.shifts.Load(o); ok {
		return pm.(*bfv.PlaintextMul)
	}
	// Lanes racing here build the same multiplier; the first stored is
	// kept.
	pt := e.ctxP.NewPlaintext()
	pt.Coeffs[e.Ctx.N-o] = e.P.T - 1
	pm := e.codP.LiftToMul(pt)
	e.codP.PrecomputeShoup(pm)
	kept, _ := e.shifts.LoadOrStore(o, pm)
	return kept.(*bfv.PlaintextMul)
}

func roundDiv(a, b int64) int64 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

// packFBS packs an ordered list of LWE values, of which valid are real
// (the rest structural zeros: padding, unused slots), applies the pending
// LUT (when non-nil), and returns the slot-encoded BFV ciphertext at the
// post level.
func (wk *evalWorker) packFBS(ordered []lwe.Ciphertext, valid int, pending *fbs.Evaluator) (*bfv.Ciphertext, error) {
	e := wk.e
	if len(ordered) > e.Ctx.N {
		return nil, fmt.Errorf("core: %d values exceed %d slots", len(ordered), e.Ctx.N)
	}
	ct, err := e.packer.PackWith(wk.ev, wk.packSc, ordered)
	if err != nil {
		return nil, err
	}
	wk.stats.Packs++
	if pending != nil {
		// The compiled LUT is shared by every worker and image; what an
		// evaluation writes lives in the worker's own scratch.
		ct, err = pending.EvaluateWith(wk.ev, wk.fbsSc, ct)
		if err != nil {
			return nil, err
		}
		wk.stats.FBSCalls++
		wk.stats.FBSInputs += valid
		wk.stats.CMult += pending.CMults
		wk.stats.SMult += pending.SMults
		wk.stats.HAdd += pending.HAdds
	}
	// Drop to the post level: the LUT's multiplicative depth is spent, so
	// the mask product, S2C, the next layer's accumulation, and the final
	// rescale all run on PostLevel limbs instead of FBSLevel.
	return e.Ctx.ModDown(ct, e.ctxP.Level())
}

// maskSlots multiplies ct by a 0/1 slot vector: 1 at the slots to keep,
// 0 at structural zeros and at slots that belong to someone else. It
// follows every LUT because tables with LUT(0) ≠ 0 (sigmoid, GELU, biased
// remaps) turn structural zeros into non-zero activations.
func (wk *evalWorker) maskSlots(ct *bfv.Ciphertext, mask []int64) *bfv.Ciphertext {
	pm := wk.codP.LiftToMul(wk.codP.EncodeSlots(mask))
	wk.stats.PMult++
	return wk.evP.MulPlain(ct, pm)
}

// prefixMask is the slot mask keeping the first n slots.
func (e *Engine) prefixMask(n int) []int64 {
	m := make([]int64, e.Ctx.N)
	for i := range m[:n] {
		m[i] = 1
	}
	return m
}

// toCoeffs applies S2C: slot i -> coefficient i.
func (wk *evalWorker) toCoeffs(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	out, err := wk.e.s2c.Apply(wk.evP, ct)
	if err != nil {
		return nil, err
	}
	wk.stats.S2CCalls++
	return out, nil
}

// extract converts the coefficients idx of a result ciphertext into
// dimension-n LWE ciphertexts at modulus t (Steps ②–③), in idx order.
func (wk *evalWorker) extract(ct *bfv.Ciphertext, idx []int) ([]lwe.Ciphertext, error) {
	e := wk.e
	a, b, err := e.Ctx.SwitchModulus(ct, e.P.QMid())
	if err != nil {
		return nil, err
	}
	cts := lwe.SampleExtract(lwe.RLWE{A: a, B: b, Q: e.P.QMid()}, idx)
	wk.stats.Extractions += len(cts)
	wk.stats.KeySwitches += len(cts)
	switched := make([]lwe.Ciphertext, len(cts))
	// One dimension switch costs N·digits AXPYs of length n; making the
	// cost explicit lets tiny extractions stay inline while layer-sized
	// ones fan out across per-lane Switchers.
	cost := e.Ctx.N * e.ksk.Digits * e.P.LWEDim
	wk.forEach(len(cts), par.Options{MinGrain: 1, ItemCost: cost}, func(ln *evalWorker, i int) {
		switched[i] = lwe.ModSwitch(ln.sw.Switch(cts[i]), e.P.T)
	})
	return switched, nil
}

// scaledEvaluator compiles the composition scale·fn (fn = identity when
// nil) into an FBS evaluator. Pooling runs its trees in a scaled domain
// so that the extraction noise e_ms, which lands at fixed absolute
// magnitude, is crushed by the divide folded into the consumer's LUT —
// the same remap-compression argument as Section 3.3.
func (e *Engine) scaledEvaluator(fn func(int64) int64, scale int64) (*fbs.Evaluator, error) {
	l := fbs.NewLUT(e.P.T, func(x int64) int64 {
		if fn != nil {
			x = fn(x)
		}
		return x * scale
	})
	return fbs.NewEvaluator(e.ctxF, l)
}

// poolScale picks the largest power-of-two domain scale such that
// maxVal·scale stays below t/2 with slack for accumulated tree noise.
func (e *Engine) poolScale(maxVal int64) int64 {
	limit := int64(e.P.T/2) - int64(e.P.T/16)
	s := int64(1)
	for maxVal*s*2 <= limit {
		s *= 2
	}
	return s
}

// materializeScaled applies pending (or identity) composed with a domain
// scale, returning LWE values carrying value·scale.
func (wk *evalWorker) materializeScaled(vs *valSet, scale int64) (*valSet, error) {
	if vs.pending != nil && vs.fn == nil {
		return nil, fmt.Errorf("core: pending LUT without plaintext shadow")
	}
	ev, err := wk.e.scaledEvaluator(vs.fn, scale)
	if err != nil {
		return nil, err
	}
	return wk.materialize(&valSet{C: vs.C, H: vs.H, W: vs.W, vals: vs.vals, pending: ev})
}

// materialize applies the pending LUT of vs (if any), returning int8
// activations as LWE values: a shared materialization of one set.
func (wk *evalWorker) materialize(vs *valSet) (*valSet, error) {
	if vs.pending == nil {
		return vs, nil
	}
	out, err := wk.materializeSets([]*valSet{vs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// materializeSets applies the pending LUT the sets share in one LUT
// round over their concatenated values and returns each set's
// materialized (identity-pending) replacement. The slot order is fixed
// by (set, sorted key), so packs fill across set boundaries and the
// redistribution is independent of scheduling.
func (wk *evalWorker) materializeSets(sets []*valSet) ([]*valSet, error) {
	var flat []lwe.Ciphertext
	keys := make([][]vkey, len(sets))
	for i, vs := range sets {
		keys[i] = sortedKeys(vs.vals)
		for _, k := range keys[i] {
			flat = append(flat, vs.vals[k])
		}
	}
	flat, err := wk.batchLUT(flat, sets[0].pending)
	if err != nil {
		return nil, err
	}
	out := make([]*valSet, len(sets))
	for i, vs := range sets {
		vals := make(map[vkey]lwe.Ciphertext, len(keys[i]))
		for j, k := range keys[i] {
			vals[k] = flat[j]
		}
		flat = flat[len(keys[i]):]
		out[i] = &valSet{C: vs.C, H: vs.H, W: vs.W, vals: vals}
	}
	return out, nil
}

// sortedKeys returns m's keys in (C, Y, X) order: the fixed order every
// value set is walked in, so slot assignment never depends on map order.
func sortedKeys[V any](m map[vkey]V) []vkey {
	keys := make([]vkey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.C != b.C {
			return a.C < b.C
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return keys
}

// at resolves the layer-geometry coordinate (c, h, w) of a layer of shape
// s to vs's value, handling the implicit flatten when a feature map feeds
// a fully-connected layer (Cin = C·H·W, H = W = 1). A value vs does not
// hold reads as absent: a structural zero.
func (vs *valSet) at(s coeffenc.ConvShape, c, h, w int) (lwe.Ciphertext, bool) {
	k := vkey{c, h, w}
	if s.H == 1 && s.W == 1 {
		k = vkey{c / (vs.H * vs.W), (c / vs.W) % vs.H, c % vs.W}
	}
	v, ok := vs.vals[k]
	return v, ok
}

// feeds reports whether vs has the geometry a layer of shape s reads,
// directly or through the flatten.
func (vs *valSet) feeds(s coeffenc.ConvShape) bool {
	return (s.Cin == vs.C && s.H == vs.H && s.W == vs.W) ||
		(s.H == 1 && s.W == 1 && s.Cin == vs.C*vs.H*vs.W)
}

// convInputs is the one place a conv input is packed: it prepares the
// coefficient-encoded input ciphertexts of a conv plan for every value
// set of sets — one image is a list of one — and returns them per set,
// per input batch, fusing the pending LUT the sets share.
//
// An input batch occupies a window of per = CB·EH·EW slots, so G = ⌊N/per⌋
// windows fill one LUT round, whichever set or input batch each belongs
// to: the windows of all (set, input batch) pairs are laid G to a round,
// and a round is packed, bootstrapped and rescaled once. Then each window
// is cut out by the 0/1 mask of its valid slots (which also clears the
// LUT's image of structural zeros), moved to coefficients by the one
// compiled S2C, and shifted from coefficients [o, o+per) to [0, per) by
// the monomial −X^(N−o). Rounds, then windows, fan out across worker
// lanes; the value maps are only read.
func (wk *evalWorker) convInputs(plan *coeffenc.Plan, sets []*valSet) ([][]*bfv.Ciphertext, error) {
	e := wk.e
	s := plan.Shape
	sub := plan.SubFactor()
	n, per := e.Ctx.N, plan.InputLen()
	if per > n {
		return nil, fmt.Errorf("core: an input batch of %d coefficients exceeds %d slots", per, n)
	}
	pending := sets[0].pending
	for _, vs := range sets {
		if vs.pending != pending {
			return nil, fmt.Errorf("core: value sets packed together carry different pending LUTs")
		}
		if !vs.feeds(s) {
			return nil, fmt.Errorf("core: layer expects %dx%dx%d input but got %dx%dx%d",
				s.Cin, s.H, s.W, vs.C, vs.H, vs.W)
		}
	}
	g := n / per
	windows := len(sets) * plan.InBatches
	rounds := (windows + g - 1) / g

	// Window w = (set w/InBatches, input batch w%InBatches) sits in round
	// w/g at slot offset (w%g)·per.
	slots := make([]*bfv.Ciphertext, rounds)
	masks := make([][]int64, windows)
	errs := make([]error, rounds)
	wk.forEach(rounds, par.Options{MinGrain: 1}, func(ln *evalWorker, r int) {
		lo, hi := r*g, min((r+1)*g, windows)
		ordered := make([]lwe.Ciphertext, (hi-lo)*per)
		for i := range ordered {
			ordered[i] = e.zero
		}
		valid := 0
		for w := lo; w < hi; w++ {
			vs, ib, o := sets[w/plan.InBatches], w%plan.InBatches, (w-lo)*per
			masks[w] = make([]int64, n)
			for i := 0; i < per; i++ {
				// Slot i of the window is coefficient i of plan.EncodeInput.
				cl, eh, ew := i/(plan.EH*plan.EW), i/plan.EW%plan.EH, i%plan.EW
				c, h, x := ib*plan.CB+cl, eh*sub-s.Pad, ew*sub-s.Pad
				if c >= s.Cin || h < 0 || h >= s.H || x < 0 || x >= s.W {
					continue // a channel past the last, or zero padding
				}
				if v, ok := vs.at(s, c, h, x); ok {
					ordered[o+i], masks[w][o+i] = v, 1
					valid++
				}
			}
		}
		slots[r], errs[r] = ln.packFBS(ordered, valid, pending)
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}

	inputs := make([][]*bfv.Ciphertext, len(sets))
	for i := range inputs {
		inputs[i] = make([]*bfv.Ciphertext, plan.InBatches)
	}
	errs = make([]error, windows)
	wk.forEach(windows, par.Options{MinGrain: 1}, func(ln *evalWorker, w int) {
		r := w / g
		ct := slots[r]
		// An identity-packed window alone in its round needs no mask:
		// nothing was bootstrapped and there is no neighbour to cut away.
		if pending != nil || min((r+1)*g, windows)-r*g > 1 {
			ct = ln.maskSlots(ct, masks[w])
		}
		ct, err := ln.toCoeffs(ct)
		if err != nil {
			errs[w] = err
			return
		}
		if o := w % g * per; o > 0 {
			ct = ln.evP.MulPlain(ct, e.shiftFor(o))
			ln.stats.PMult++
		}
		inputs[w/plan.InBatches][w%plan.InBatches] = ct
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	return inputs, nil
}

// convAccumulate runs Step ① on prepared coefficient-encoded inputs and
// returns the accumulator ciphertexts (one per output batch). Output
// batches are independent (each reads the shared inputs and writes its
// own accumulator), so they fan out across worker lanes.
func (wk *evalWorker) convAccumulate(q *qnn.QConv, plan *coeffenc.Plan, inputs []*bfv.Ciphertext) []*bfv.Ciphertext {
	e := wk.e
	k3d := q.Weights
	accs := make([]*bfv.Ciphertext, plan.OutBatches)
	// One output batch costs InBatches plaintext products (2·limbs·N
	// word multiplies each at the post level) plus the kernel encodes.
	cost := plan.InBatches * 2 * e.ctxP.Level() * e.Ctx.N
	wk.forEach(plan.OutBatches, par.Options{MinGrain: 1, ItemCost: cost}, func(ln *evalWorker, ob int) {
		var acc *bfv.Ciphertext
		for ib := 0; ib < plan.InBatches; ib++ {
			kv := plan.EncodeKernel(k3d, ib, ob)
			pm := ln.codP.LiftToMul(ln.codP.EncodeCoeffs(kv))
			if acc == nil {
				acc = ln.evP.MulPlain(inputs[ib], pm)
			} else {
				ln.evP.MulPlainAndAdd(inputs[ib], pm, acc)
				ln.stats.HAdd++
			}
			ln.stats.PMult++
		}
		// Bias: added at every valid output coefficient.
		biasVec := make([]int64, e.Ctx.N)
		for _, en := range plan.ValidCoeffs(ob) {
			biasVec[en.Coeff] = q.Bias[en.Cout]
		}
		acc = ln.evP.AddPlain(acc, ln.codP.EncodeCoeffs(biasVec))
		accs[ob] = acc
	})
	return accs
}

// convLayer runs the loop for one quantized linear layer. Its inputs are
// either already prepared — the client's coefficient encodings before the
// first layer, or the batch barrier's — or are packed here from the
// labeled LWE values of st.vs, fusing the pending LUT. Both then share
// one tail: accumulate, extract, and leave the layer's own LUT pending —
// except that the network's last op stops at its accumulators, which are
// the encrypted logits.
func (wk *evalWorker) convLayer(q *qnn.QConv, st *inferState, lastOp bool) (*inferState, error) {
	e := wk.e
	plan, inputs := st.plan, st.inputs
	var err error
	if inputs != nil {
		// Client ciphertexts arrive at the full chain — drop them to the
		// post level so the accumulation runs on the short chain like
		// every later layer. The barrier's are there already.
		inputs = make([]*bfv.Ciphertext, len(st.inputs))
		for i, ct := range st.inputs {
			if inputs[i], err = e.Ctx.ModDown(ct, e.ctxP.Level()); err != nil {
				return nil, err
			}
		}
	} else {
		if plan, err = coeffenc.NewPlan(q.Shape, e.Ctx.N, coeffenc.AthenaOrder); err != nil {
			return nil, err
		}
		prepared, err := wk.convInputs(plan, []*valSet{st.vs})
		if err != nil {
			return nil, err
		}
		inputs = prepared[0]
	}
	accs := wk.convAccumulate(q, plan, inputs)
	if lastOp {
		return &inferState{vs: &valSet{}, final: &finalResult{conv: q, plan: plan, accs: accs}}, nil
	}
	out := &valSet{C: q.Shape.Cout, H: q.Shape.OutH(), W: q.Shape.OutW(), vals: make(map[vkey]lwe.Ciphertext)}
	for ob, acc := range accs {
		entries := plan.ValidCoeffs(ob)
		idx := make([]int, len(entries))
		for i, en := range entries {
			idx[i] = en.Coeff
		}
		cts, err := wk.extract(acc, idx)
		if err != nil {
			return nil, err
		}
		for i, en := range entries {
			out.vals[vkey{en.Cout, en.Y, en.X}] = cts[i]
		}
	}
	if out.pending, err = e.lutFor(q); err != nil {
		return nil, err
	}
	out.fn = q.Remap
	return &inferState{vs: out}, nil
}

// addLWE returns a+b at modulus t (phase addition under the shared key).
func (e *Engine) addLWE(a, b lwe.Ciphertext) lwe.Ciphertext {
	m := e.tMod
	out := lwe.Ciphertext{A: make([]uint64, len(a.A)), Q: e.P.T}
	for i := range a.A {
		out.A[i] = m.Add(a.A[i], b.A[i])
	}
	out.B = m.Add(a.B, b.B)
	return out
}

// subLWE returns a−b at modulus t.
func (e *Engine) subLWE(a, b lwe.Ciphertext) lwe.Ciphertext {
	m := e.tMod
	out := lwe.Ciphertext{A: make([]uint64, len(a.A)), Q: e.P.T}
	for i := range a.A {
		out.A[i] = m.Sub(a.A[i], b.A[i])
	}
	out.B = m.Sub(a.B, b.B)
	return out
}
