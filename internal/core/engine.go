package core

import (
	"crypto/sha256"
	"fmt"

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
	ksk := e.ks.NewKey(&lwe.SecretKey{S: e.sk.Signed}, e.lweSK, e.params.Sigma, p.Seed^0x55)

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

// lut returns the plan's compiled evaluator of the table of f on span
// (fbs.NewRangeLUT). The key is the SHA-256 of the span and the table's
// words there, staged in the worker's own buffer, so a lookup allocates
// nothing once the buffer has grown.
func (wk *evalWorker) lut(span qnn.Interval, f func(int64) int64) (*fbs.Evaluator, error) {
	wk.table = fbs.AppendTable(wk.table[:0], wk.e.P.T, span.Lo, span.Hi, f)
	return wk.e.compiled(sha256.Sum256(wk.table), span, f)
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

// maskSlots sets out to ct times the 0/1 slot vector of window w: 1 at
// the slots i of w that keep, 0 at structural zeros and at slots that
// belong to someone else. Only a conv input needs it: a convolution
// mixes coefficients, and tables with LUT(0) ≠ 0 (sigmoid, GELU, biased
// remaps) turn structural zeros into non-zero activations. A round that
// is only extracted or decoded needs none — S2C maps slot i to
// coefficient i, and nothing past its values is read.
func (wk *evalWorker) maskSlots(ct *bfv.Ciphertext, w *Window, keep func(i int) bool, out *bfv.Ciphertext) {
	pt, pm := wk.plain()
	clear(wk.mask)
	for i := 0; i < w.Len; i++ {
		if keep(i) {
			wk.mask[w.Offset+i] = 1
		}
	}
	wk.codP.EncodeSlotsInto(wk.mask, pt)
	wk.codP.LiftToMulInto(pt, pm)
	wk.stats.PMult++
	wk.evP.MulPlainInto(ct, pm, out)
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

// convInputs is the one place a conv input is packed: it prepares a
// conv plan's coefficient-encoded inputs in the rounds the schedule lays
// (builder.windows) under lut (nil: packed only), per image — sets[i] is
// image first+i's values — and input batch.
//
// A round is packed, bootstrapped and rescaled once. Then each window is
// cut out by the 0/1 mask of its valid slots if masked (which clears the
// LUT's image of structural zeros too), moved to coefficients by the one
// S2C, and shifted from [o, o+per) to [0, per) by the monomial −X^(N−o).
// Rounds, then windows, fan out across worker lanes; values are read.
func (wk *evalWorker) convInputs(plan *coeffenc.Plan, rounds []Round, sets [][]lwe.Ciphertext, first int, lut *fbs.Evaluator) ([][]*bfv.Ciphertext, error) {
	e, s, sub := wk.e, plan.Shape, plan.SubFactor()
	// value returns what slot i of window w holds: slot i is coefficient i
	// of plan.EncodeInput, a channel past the last or zero padding holds
	// nothing, and a feature map feeding a dense layer (Cin = C·H·W,
	// H = W = 1) is read in its (c, y, x) order, which is the flatten's.
	value := func(w *Window, i int) (lwe.Ciphertext, bool) {
		c, h, x := w.Batch*plan.CB+i/(plan.EH*plan.EW), i/plan.EW%plan.EH*sub-s.Pad, i%plan.EW*sub-s.Pad
		if c >= s.Cin || h < 0 || h >= s.H || x < 0 || x >= s.W {
			return e.zero, false
		}
		return sets[w.Image-first][(c*s.H+h)*s.W+x], true
	}
	windows := 0
	for _, r := range rounds {
		windows += len(r.Windows)
	}
	slots := make([]*bfv.Ciphertext, len(rounds))
	errs := make([]error, len(rounds))
	wk.forEach(len(rounds), func(ln *evalWorker, r int) {
		ws := rounds[r].Windows
		ordered := make([]lwe.Ciphertext, ws[len(ws)-1].Offset+ws[len(ws)-1].Len)
		valid := 0
		for k := range ws {
			for i := 0; i < ws[k].Len; i++ {
				v, ok := value(&ws[k], i)
				if ok {
					valid++
				}
				ordered[ws[k].Offset+i] = v
			}
		}
		slots[r], errs[r] = ln.packFBS(ordered, valid, lut)
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}

	inputs := make([][]*bfv.Ciphertext, len(sets))
	for i := range inputs {
		inputs[i] = make([]*bfv.Ciphertext, plan.InBatches)
	}
	errs = make([]error, windows)
	wk.forEach(windows, func(ln *evalWorker, wi int) {
		r, k := 0, wi
		for k >= len(rounds[r].Windows) {
			k -= len(rounds[r].Windows)
			r++
		}
		w := &rounds[r].Windows[k]
		// The window's input outlives the fan-out; what it passes through
		// is the lane's.
		ct, in := slots[r], e.ctxP.NewCiphertext()
		if ln.window == nil {
			ln.window = e.ctxP.NewCiphertext()
		}
		// Skipping the mask of a lone window also spares its noise, about
		// log2(√N·t) bits — at N = 2^11 and t = 65537 more than S2C leaves
		// at the post level.
		if w.Masked {
			ln.maskSlots(ct, w, func(i int) bool { _, ok := value(w, i); return ok }, ln.window)
			ct = ln.window
		}
		// S2C lands in the input itself unless a shift follows.
		dst := in
		if w.Offset > 0 {
			dst = ln.window
		}
		if errs[wi] = ln.toCoeffs(ct, dst); errs[wi] != nil {
			return
		}
		if w.Offset > 0 {
			ln.evP.MulPlainInto(dst, e.shiftFor(w.Offset), in)
			ln.stats.PMult++
		}
		inputs[w.Image-first][w.Batch] = in
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

// addLWE returns a+b at modulus t (phase addition under the shared key),
// and a−b when sub is set.
func (e *Engine) addLWE(a, b lwe.Ciphertext, sub bool) lwe.Ciphertext {
	m := e.tMod
	op := func(x, y uint64) uint64 {
		if sub {
			return m.Sub(x, y)
		}
		return m.Add(x, y)
	}
	out := lwe.Ciphertext{A: make([]uint64, len(a.A)), Q: e.P.T, B: op(a.B, b.B)}
	for i := range a.A {
		out.A[i] = op(a.A[i], b.A[i])
	}
	return out
}
