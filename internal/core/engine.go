package core

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/par"
	"athena/internal/qnn"
)

// Engine holds all key material and compiled transforms for running
// quantized networks under FHE. In a deployment the secret key and
// decryptor live with the client and everything else with the server;
// the engine keeps both sides for end-to-end evaluation. What does not
// depend on the keys — contexts (Ctx among them), S2C, compiled LUTs —
// is the plan the engine shares with every other engine at its Params.
type Engine struct {
	P Params
	*plan

	sk   *bfv.SecretKey
	enc  *bfv.Encryptor
	dec  *bfv.Decryptor
	ev   *bfv.Evaluator // FBS-level evaluator (ctxF)
	evP  *bfv.Evaluator // post-level evaluator (ctxP)
	cod  *bfv.Encoder   // full-level encoder (client-side encode/decode)
	codP *bfv.Encoder   // post-level encoder (lifts for post-level products)

	lweSK  *lwe.SecretKey    // dimension n secret (client side)
	ksk    *lwe.KeySwitchKey // ring secret -> embedding of lweSK at qMid
	packer *pack.Packer      // packer at ctxF over the FBS-level babies

	// w0 is the top-level evaluation worker (wrapping e.ev); lanes holds
	// the ShallowCopy'd workers the operator-level fan-outs run on.
	w0    *evalWorker
	lanes *par.Pool[*evalWorker]

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
	KeySwitches int `json:"key_switches"` // Step ③'s ring switches: one per extracted ciphertext
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

// NewEngine generates all key material for params. Every switching key
// is generated at the level that reads it, which is also the level
// WriteEvalKeys ships it at; the packing babies are encrypted over the
// full chain and ModDown'd to theirs (keysAtUse).
func NewEngine(p Params) (*Engine, error) {
	e, gen, err := newClientEngine(p, false)
	if err != nil {
		return nil, err
	}
	ek, err := e.keysAtUse(gen)
	if err != nil {
		return nil, err
	}
	if err := e.install(ek); err != nil {
		return nil, err
	}
	return e, nil
}

// newClientEngine generates a client's secret and encryption keys, and
// returns its evaluation keys as generated, without installing them:
// each switching key at its level of use (plan.galois, ctxF's for the
// relinearization key), or over the full chain when fullChain is set —
// the same seeds either way, so the cut full-chain keys are the keys at
// use — and the packing babies over the full chain.
func newClientEngine(p Params, fullChain bool) (*Engine, *EvalKeys, error) {
	e, err := newEngine(p)
	if err != nil {
		return nil, nil, err
	}
	ctx := e.Ctx
	kg := bfv.NewKeyGenerator(ctx, p.Seed)
	e.sk = kg.GenSecretKey()
	pk := kg.GenPublicKey(e.sk)
	e.enc = bfv.NewEncryptor(ctx, pk, p.Seed^0xeac7)
	e.dec = bfv.NewDecryptor(ctx, e.sk)

	// LWE material: a fresh dimension-n key, and the switch from the ring
	// secret to its embedding in the ring.
	e.lweSK = lwe.NewSecretKey(p.LWEDim, p.Seed^0x17e)
	ksk := e.ks.NewKey(&lwe.SecretKey{S: e.sk.Signed}, e.lweSK, p.Sigma, p.Seed^0x55)

	pkFull, err := pack.NewPacker(ctx, e.enc, e.lweSK)
	if err != nil {
		return nil, nil, err
	}
	n, babies := pkFull.Keys()
	level := func(use int) int {
		if fullChain {
			return ctx.Level()
		}
		return use
	}
	keys := &bfv.KeySet{
		Relin:  kg.GenRelinearizationKey(e.sk, level(e.ctxF.Level())),
		Galois: make(map[uint64]*bfv.GaloisKey, len(e.galois)),
	}
	for _, u := range e.galois {
		keys.Galois[u.g] = kg.GenGaloisKey(e.sk, u.g, level(u.level))
	}
	return e, &EvalKeys{KeySet: keys, PackDim: n, PackKeys: babies, KSK: ksk}, nil
}

// newEngine is the keyless frame both constructors start from: the
// process's plan for p and the engine's own encoders.
func newEngine(p Params) (*Engine, error) {
	pl, err := planFor(p)
	if err != nil {
		return nil, err
	}
	return &Engine{P: p, plan: pl, cod: bfv.NewEncoder(pl.Ctx), codP: bfv.NewEncoder(pl.ctxP)}, nil
}

// install makes ek, which holds every key at its level of use
// (keysAtUse), the engine's evaluation keys: the keyswitch key, the
// packer at ctxF, and the worker group over both schedule levels.
func (e *Engine) install(ek *EvalKeys) error {
	var err error
	if e.packer, err = pack.NewPackerFromKeys(e.ctxF, ek.PackDim, ek.PackKeys); err != nil {
		return err
	}
	e.ksk = ek.KSK
	// Two evaluators per worker, one per schedule level, over one key
	// set: a keyswitch reads the prefix digits and limbs of its level (the
	// ring kernels only touch the prefix limbs of key polynomials, and
	// reduced contexts carry the corrected keyswitch digit constants).
	e.ev = bfv.NewEvaluator(e.ctxF, ek.KeySet)
	e.evP = bfv.NewEvaluator(e.ctxP, ek.KeySet)
	e.w0 = e.newWorker(e.ev, e.evP, e.codP, true)
	e.lanes = par.NewPool(func() *evalWorker {
		// newWorker only wraps the freshly forked evaluators and a brand-new
		// encoder in a per-lane struct; it reads no mutable Engine scratch,
		// and par.Pool serializes mk under its own mutex.
		//lint:allow scratchalias newWorker allocates per-lane state from a fresh ShallowCopy; no shared scratch is touched
		return e.newWorker(e.ev.ShallowCopy(), e.evP.ShallowCopy(), bfv.NewEncoder(e.ctxP), false)
	})
	return nil
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
	// span is the proven interval of the values once pending is applied:
	// what the next layer's interval pass reads.
	span qnn.Interval
}

// lut returns the plan's compiled evaluator of the table of f on span
// (fbs.NewRangeLUT). The key is the SHA-256 of the span and the table's
// words there, staged in the worker's own buffer, so a lookup allocates
// nothing once the buffer has grown.
func (wk *evalWorker) lut(span qnn.Interval, f func(int64) int64) (*fbs.Evaluator, error) {
	wk.table = fbs.AppendTable(wk.table[:0], wk.e.P.T, span.Lo, span.Hi, f)
	return wk.e.compiled(sha256.Sum256(wk.table), span, f)
}

// lutFor returns the FBS evaluator of a conv's fused remap for
// accumulators proven to lie in acc: the table on acc widened by the
// margin E, the lowest-degree one that is exact for every accumulator
// plus its e_ms, and the interval of the values it writes there.
func (wk *evalWorker) lutFor(q *qnn.QConv, acc qnn.Interval) (*fbs.Evaluator, qnn.Interval, error) {
	if t := wk.e.P.T; q.MaxAcc >= int64(t/2) {
		return nil, qnn.Interval{}, fmt.Errorf("core: %s accumulator bound %d exceeds t/2 = %d", q.OpName(), q.MaxAcc, t/2)
	}
	span := wk.e.domain(acc, wk.e.margin)
	ev, err := wk.lut(span, q.Remap)
	return ev, qnn.Image(q.Remap, span), err
}

// reluClampFor returns the post-add ReLU clamped to actBits.
func (wk *evalWorker) reluClampFor(actBits int) (*fbs.Evaluator, error) {
	lim := int64(1)<<(actBits-1) - 1
	return wk.lut(wk.e.whole, func(x int64) int64 {
		if x < 0 {
			return 0
		}
		if x > lim {
			return lim
		}
		return x
	})
}

// divideFor returns the rounded divide by kk (avg-pool's k², or a pooling
// domain scale).
func (wk *evalWorker) divideFor(kk int) (*fbs.Evaluator, error) {
	return wk.lut(wk.e.whole, func(x int64) int64 { return roundDiv(x, int64(kk)) })
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
// post level, which the caller owns.
func (wk *evalWorker) packFBS(ordered []lwe.Ciphertext, valid int, pending *fbs.Evaluator) (*bfv.Ciphertext, error) {
	e := wk.e
	if len(ordered) > e.Ctx.N {
		return nil, fmt.Errorf("core: %d values exceed %d slots", len(ordered), e.Ctx.N)
	}
	if wk.round == nil {
		wk.round = e.ctxF.NewCiphertext()
	}
	ct := wk.round
	if err := e.packer.PackInto(wk.ev, wk.packSc, ordered, ct); err != nil {
		return nil, err
	}
	wk.stats.Packs++
	if pending != nil {
		// The compiled LUT is shared by every worker and image; what an
		// evaluation writes lives in the worker's own scratch.
		if err := pending.EvaluateInto(wk.ev, wk.fbsSc, ct, ct); err != nil {
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
	// rescale all run on PostLevel limbs instead of FBSLevel. The result
	// outlives the call, and ct is the worker's round buffer, which ModDown
	// hands back when no limb drops.
	if ct.Level() == e.ctxP.Level() {
		return ct.Clone(), nil
	}
	return e.Ctx.ModDownWith(ct, e.ctxP.Level(), &wk.rescale)
}

// maskSlots sets out to ct times a 0/1 slot vector: 1 at the slots to
// keep, 0 at structural zeros and at slots that belong to someone else.
// It follows every LUT because tables with LUT(0) ≠ 0 (sigmoid, GELU,
// biased remaps) turn structural zeros into non-zero activations.
func (wk *evalWorker) maskSlots(ct *bfv.Ciphertext, mask []int64, out *bfv.Ciphertext) {
	pt, pm := wk.plain()
	wk.codP.EncodeSlotsInto(mask, pt)
	wk.codP.LiftToMulInto(pt, pm)
	wk.stats.PMult++
	wk.evP.MulPlainInto(ct, pm, out)
}

// prefixMask is the slot mask keeping the first n slots.
func (e *Engine) prefixMask(n int) []int64 {
	m := make([]int64, e.Ctx.N)
	for i := range m[:n] {
		m[i] = 1
	}
	return m
}

// toCoeffs sets out to S2C of ct: slot i -> coefficient i. out may alias
// ct.
func (wk *evalWorker) toCoeffs(ct, out *bfv.Ciphertext) error {
	if err := wk.e.s2c.ApplyInto(wk.evP, &wk.s2cSc, ct, out); err != nil {
		return err
	}
	wk.stats.S2CCalls++
	return nil
}

// extract converts the coefficients idx of a result ciphertext into
// dimension-n LWE ciphertexts at modulus t (Steps ②–③), in idx order:
// the modulus switch to qMid, one ring switch to the LWE secret's
// embedding and the switch to t (lwe.Switcher.SwitchExtract), then a
// strided gather per value. Both steps stage in the worker; every
// gathered mask lands in one backing array.
func (wk *evalWorker) extract(ct *bfv.Ciphertext, idx []int) ([]lwe.Ciphertext, error) {
	e := wk.e
	if wk.sw == nil {
		wk.sw = e.ksk.NewSwitcher()
	}
	mid := wk.sw.In
	if err := e.Ctx.SwitchModulusInto(ct, e.P.QMid(), mid.A, mid.B, &wk.rescale); err != nil {
		return nil, err
	}
	wk.stats.Extractions += len(idx)
	wk.stats.KeySwitches++
	n := e.P.LWEDim
	out := make([]lwe.Ciphertext, len(idx))
	masks := make([]uint64, len(idx)*n)
	for i := range out {
		out[i].A = masks[i*n : (i+1)*n : (i+1)*n]
	}
	wk.sw.SwitchExtract(mid, idx, e.P.T, out)
	return out, nil
}

// scaledEvaluator returns the evaluator of the composition scale·fn (fn =
// identity when nil). Pooling runs its trees in a scaled domain so that
// the extraction noise e_ms, which lands at fixed absolute magnitude, is
// crushed by the divide folded into the consumer's LUT — the same
// remap-compression argument as Section 3.3.
func (wk *evalWorker) scaledEvaluator(fn func(int64) int64, scale int64) (*fbs.Evaluator, error) {
	return wk.lut(wk.e.whole, func(x int64) int64 {
		if fn != nil {
			x = fn(x)
		}
		return x * scale
	})
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
	ev, err := wk.scaledEvaluator(vs.fn, scale)
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
		out[i] = &valSet{C: vs.C, H: vs.H, W: vs.W, vals: vals, span: vs.span}
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
// LUT's image of structural zeros; a window alone in its round under a
// LUT that keeps zeros needs no cut), moved to coefficients by the one
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
	keepsZero := pending == nil || (sets[0].fn != nil && sets[0].fn(0) == 0)
	rounds := (windows + g - 1) / g

	// Window w = (set w/InBatches, input batch w%InBatches) sits in round
	// w/g at slot offset (w%g)·per.
	slots := make([]*bfv.Ciphertext, rounds)
	masks := make([][]int64, windows)
	errs := make([]error, rounds)
	wk.forEach(rounds, func(ln *evalWorker, r int) {
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
	wk.forEach(windows, func(ln *evalWorker, w int) {
		r, o := w/g, w%g*per
		// The window's input outlives the fan-out; what it passes through
		// is the lane's.
		ct, in := slots[r], e.ctxP.NewCiphertext()
		if ln.window == nil {
			ln.window = e.ctxP.NewCiphertext()
		}
		// A window alone in its round needs no mask when the LUT keeps
		// zeros: there is no neighbour to cut away, and its structural
		// zeros pack to exact zeros, which an identity leaves as they are
		// and an exact LUT with f(0) = 0 maps to 0. Skipping the product
		// also spares its noise, about log2(√N·t) bits — at N = 2^11 and
		// t = 65537 more than S2C leaves at the post level.
		if !keepsZero || min((r+1)*g, windows)-r*g > 1 {
			ln.maskSlots(ct, masks[w], ln.window)
			ct = ln.window
		}
		// S2C lands in the input itself unless a shift follows.
		dst := in
		if o > 0 {
			dst = ln.window
		}
		if errs[w] = ln.toCoeffs(ct, dst); errs[w] != nil {
			return
		}
		if o > 0 {
			ln.evP.MulPlainInto(dst, e.shiftFor(o), in)
			ln.stats.PMult++
		}
		inputs[w/plan.InBatches][w%plan.InBatches] = in
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	return inputs, nil
}

// convAccumulate runs Step ① on prepared coefficient-encoded inputs and
// returns the accumulator ciphertexts (one per output batch) and each
// output batch's valid coefficients, which the bias is added at and the
// caller extracts. Output batches run serially on wk: a layer has one or
// two at the benchmark shapes, each a few plaintext products, which a
// fork-join (12–61 µs) would not repay.
func (wk *evalWorker) convAccumulate(q *qnn.QConv, plan *coeffenc.Plan, inputs []*bfv.Ciphertext) ([]*bfv.Ciphertext, [][]coeffenc.ValidEntry) {
	e := wk.e
	k3d := q.Weights
	accs := make([]*bfv.Ciphertext, plan.OutBatches)
	valid := make([][]coeffenc.ValidEntry, plan.OutBatches)
	for ob := 0; ob < plan.OutBatches; ob++ {
		acc := e.ctxP.NewCiphertext()
		for ib := 0; ib < plan.InBatches; ib++ {
			pt, pm := wk.plain()
			wk.codP.EncodeCoeffsInto(plan.EncodeKernel(k3d, ib, ob), pt)
			wk.codP.LiftToMulInto(pt, pm)
			if ib == 0 {
				wk.evP.MulPlainInto(inputs[ib], pm, acc)
			} else {
				wk.evP.MulPlainAndAdd(inputs[ib], pm, acc)
				wk.stats.HAdd++
			}
			wk.stats.PMult++
		}
		// Bias: added at every valid output coefficient.
		biasVec := make([]int64, e.Ctx.N)
		valid[ob] = plan.ValidCoeffs(ob)
		for _, en := range valid[ob] {
			biasVec[en.Coeff] = q.Bias[en.Cout]
		}
		pt, _ := wk.plain()
		wk.codP.EncodeCoeffsInto(biasVec, pt)
		wk.evP.AddPlainInPlace(acc, pt)
		accs[ob] = acc
	}
	return accs, valid
}

// convLayer runs the loop for one quantized linear layer. Its inputs are
// either already prepared — the client's coefficient encodings before the
// first layer, or the batch barrier's — or are packed here from the
// labeled LWE values of st.vs, fusing the pending LUT. Both then share
// one tail: accumulate, extract, and leave the layer's own LUT pending,
// sized to the accumulators' proven interval — except that the network's
// last op stops at its accumulators, which are the encrypted logits.
func (wk *evalWorker) convLayer(q *qnn.QConv, st *inferState, lastOp bool) (*inferState, error) {
	e := wk.e
	plan, inputs, in := st.plan, st.inputs, st.span
	var err error
	if inputs != nil {
		// Client ciphertexts arrive at the full chain — drop them to the
		// post level so the accumulation runs on the short chain like
		// every later layer. The barrier's are there already.
		inputs = make([]*bfv.Ciphertext, len(st.inputs))
		for i, ct := range st.inputs {
			if inputs[i], err = e.Ctx.ModDownWith(ct, e.ctxP.Level(), &wk.rescale); err != nil {
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
		inputs, in = prepared[0], st.vs.span
	}
	accs, valid := wk.convAccumulate(q, plan, inputs)
	if lastOp {
		return &inferState{vs: &valSet{}, final: &finalResult{conv: q, plan: plan, accs: accs}}, nil
	}
	out := &valSet{C: q.Shape.Cout, H: q.Shape.OutH(), W: q.Shape.OutW(), vals: make(map[vkey]lwe.Ciphertext)}
	for ob, acc := range accs {
		entries := valid[ob]
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
	if out.pending, out.span, err = wk.lutFor(q, q.AccInterval(in)); err != nil {
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
