package core

import (
	"errors"
	"fmt"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/par"
	"athena/internal/qnn"
)

// Infer runs the quantized network on input x (already quantized to the
// network's integer input encoding) entirely under encryption, and
// returns the decrypted output logits. It is the convenience wrapper
// around the three-phase client/server API in session.go.
func (e *Engine) Infer(q *qnn.QNetwork, x *qnn.IntTensor) ([]int64, error) {
	in, err := e.EncryptInput(q, x)
	if err != nil {
		return nil, err
	}
	out, err := e.EvaluateEncrypted(q, in)
	if err != nil {
		return nil, err
	}
	return e.DecryptLogits(out)
}

// inferState is one image's state between ops: either prepared conv
// inputs, the usual labeled LWE values, or the terminal accumulators.
type inferState struct {
	vs *valSet
	// inputs holds the coefficient-encoded input ciphertexts of the next
	// linear layer, laid out by plan and consumed once: the client's
	// encryptions before the first layer, or what the batch barrier
	// prepared for this image in rounds shared across the batch.
	inputs []*bfv.Ciphertext
	plan   *coeffenc.Plan

	// final carries the terminal layer's accumulators once the last op
	// has run. Keeping it in the per-inference state (rather than on the
	// engine) lets batched images evaluate concurrently.
	final *finalResult
}

var (
	errEmptyNetwork = errors.New("core: empty network")
	errNilInput     = errors.New("core: nil encrypted input")
	errNoFinal      = errors.New("core: network did not end in a linear layer")
)

func firstConv(q *qnn.QNetwork) (*qnn.QConv, error) {
	if len(q.Blocks) == 0 {
		return nil, errEmptyNetwork
	}
	seq, ok := q.Blocks[0].(qnn.QSeq)
	if !ok || len(seq) == 0 {
		return nil, fmt.Errorf("core: network must start with a QSeq")
	}
	c, ok := seq[0].(*qnn.QConv)
	if !ok {
		return nil, fmt.Errorf("core: network must start with a linear layer")
	}
	return c, nil
}

// applyOp dispatches one quantized operation. aMax is the network's
// largest activation, which sizes the pooling domains.
func (wk *evalWorker) applyOp(op qnn.QOp, st *inferState, lastOp bool, aMax int64) (*inferState, error) {
	var vs *valSet
	var err error
	switch o := op.(type) {
	case *qnn.QConv:
		return wk.convLayer(o, st, lastOp)
	case *qnn.QMaxPool:
		vs, err = wk.maxPool(o, st.vs, aMax)
	case *qnn.QAvgPool:
		vs, err = wk.avgPool(o, st.vs, aMax)
	default:
		return nil, fmt.Errorf("core: unsupported op %T", op)
	}
	if err != nil {
		return nil, err
	}
	return &inferState{vs: vs}, nil
}

// finalResult holds the terminal layer's accumulator ciphertexts for
// decryption.
type finalResult struct {
	conv *qnn.QConv
	plan *coeffenc.Plan
	accs []*bfv.Ciphertext
}

// residualBlock runs body and shortcut, joins them with an LWE addition,
// and leaves the post-add ReLU-clamp LUT pending.
func (wk *evalWorker) residualBlock(r *qnn.QResidual, st *inferState) (*inferState, error) {
	e := wk.e
	if st.inputs != nil {
		return nil, fmt.Errorf("core: residual block cannot be the first block")
	}
	in, err := wk.materialize(st.vs)
	if err != nil {
		return nil, err
	}
	body, err := wk.residualBranch(r.Body, in, "body")
	if err != nil {
		return nil, err
	}
	short, err := wk.residualBranch(r.Shortcut, in, "shortcut")
	if err != nil {
		return nil, err
	}
	if body.C != short.C || body.H != short.H || body.W != short.W {
		return nil, fmt.Errorf("core: residual branch shapes differ")
	}
	out := &valSet{C: body.C, H: body.H, W: body.W, vals: make(map[vkey]lwe.Ciphertext, len(body.vals))}
	for k, b := range body.vals {
		s, ok := short.vals[k]
		if !ok {
			return nil, fmt.Errorf("core: residual shortcut missing value %v", k)
		}
		out.vals[k] = e.addLWE(b, s)
		wk.stats.LWEAdds++
	}
	joinLUT, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, r.JoinRemap))
	if err != nil {
		return nil, err
	}
	out.pending = joinLUT
	out.fn = r.JoinRemap
	return &inferState{vs: out}, nil
}

// residualBranch runs one branch of a residual block (linear layers
// only) on the materialized block input and materializes its result; an
// empty branch is the identity.
func (wk *evalWorker) residualBranch(ops qnn.QSeq, vs *valSet, name string) (*valSet, error) {
	for _, op := range ops {
		c, ok := op.(*qnn.QConv)
		if !ok {
			return nil, fmt.Errorf("core: residual %s supports linear layers only, got %T", name, op)
		}
		st, err := wk.convLayer(c, &inferState{vs: vs}, false)
		if err != nil {
			return nil, err
		}
		vs = st.vs
	}
	return wk.materialize(vs)
}

// avgPool sums each window with LWE additions in a scaled domain (so
// the per-value extraction noise is crushed by the divide) and leaves
// the divide LUT pending.
func (wk *evalWorker) avgPool(p *qnn.QAvgPool, vs *valSet, aMax int64) (*valSet, error) {
	e := wk.e
	scale := e.poolScale(aMax * int64(p.K*p.K))
	in, err := wk.materializeScaled(vs, scale)
	if err != nil {
		return nil, err
	}
	oh, ow := in.H/p.K, in.W/p.K
	out := &valSet{C: in.C, H: oh, W: ow, vals: make(map[vkey]lwe.Ciphertext)}
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				acc := e.zeroLWE()
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						acc = e.addLWE(acc, in.vals[vkey{c, y*p.K + i, x*p.K + j}])
						wk.stats.LWEAdds++
					}
				}
				out.vals[vkey{c, y, x}] = acc
			}
		}
	}
	div := scale * int64(p.K*p.K)
	out.pending, err = e.divideFor(int(div))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, div) }
	return out, nil
}

// maxPool runs the PEGASUS-style max tree: max(a,b) = b + ReLU(a−b),
// with each tree level's ReLU batched into as few FBS calls as possible.
// The tree operates in a scaled domain so the extraction noise of each
// ReLU round stays far below one activation step; the divide back is
// left pending for the consumer's LUT.
func (wk *evalWorker) maxPool(p *qnn.QMaxPool, vs *valSet, aMax int64) (*valSet, error) {
	e := wk.e
	scale := e.poolScale(aMax)
	in, err := wk.materializeScaled(vs, scale)
	if err != nil {
		return nil, err
	}
	oh, ow := in.H/p.K, in.W/p.K
	// Gather each window's candidates.
	windows := make(map[vkey][]lwe.Ciphertext)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var cands []lwe.Ciphertext
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						cands = append(cands, in.vals[vkey{c, y*p.K + i, x*p.K + j}])
					}
				}
				windows[vkey{c, y, x}] = cands
			}
		}
	}
	relu, err := e.reluFull()
	if err != nil {
		return nil, err
	}
	for levelHasPairs(windows) {
		// Collect one (a,b) pair per window for this level.
		type pend struct {
			k    vkey
			b    lwe.Ciphertext
			rest []lwe.Ciphertext
		}
		var pends []pend
		var diffs []lwe.Ciphertext
		for _, k := range sortedKeys(windows) {
			cands := windows[k]
			if len(cands) < 2 {
				continue
			}
			a, b := cands[0], cands[1]
			diffs = append(diffs, e.subLWE(a, b))
			pends = append(pends, pend{k: k, b: b, rest: cands[2:]})
		}
		// Batch-ReLU the differences, chunked by slot capacity.
		relus, err := wk.batchLUT(diffs, relu)
		if err != nil {
			return nil, err
		}
		for i, pd := range pends {
			m := e.addLWE(pd.b, relus[i]) // max(a,b)
			wk.stats.LWEAdds++
			windows[pd.k] = append([]lwe.Ciphertext{m}, pd.rest...)
		}
	}
	out := &valSet{C: in.C, H: oh, W: ow, vals: make(map[vkey]lwe.Ciphertext)}
	for k, cands := range windows {
		out.vals[k] = cands[0]
	}
	out.pending, err = e.divideFor(int(scale))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, scale) }
	return out, nil
}

func levelHasPairs(w map[vkey][]lwe.Ciphertext) bool {
	for _, c := range w {
		if len(c) >= 2 {
			return true
		}
	}
	return false
}

// reluFull is the plain ReLU LUT (no clamp change) used by the max tree.
func (e *Engine) reluFull() (*fbs.Evaluator, error) {
	return e.reluClampFor(63) // lim = 2^62-1: effectively unclamped ReLU
}

// batchLUT is the one LUT round of the pipeline: it applies lut to a
// flat list of LWE values via pack→FBS→S2C→extract, preserving order.
// The slot-capacity chunks are independent bootstrapping rounds and fan
// out across worker lanes; each chunk writes only its own
// out[start:end] window.
func (wk *evalWorker) batchLUT(vals []lwe.Ciphertext, lut *fbs.Evaluator) ([]lwe.Ciphertext, error) {
	e := wk.e
	n := e.Ctx.N
	out := make([]lwe.Ciphertext, len(vals))
	chunks := (len(vals) + n - 1) / n
	errs := make([]error, chunks)
	wk.forEach(chunks, par.Options{MinGrain: 1}, func(ln *evalWorker, ci int) {
		start := ci * n
		end := start + n
		if end > len(vals) {
			end = len(vals)
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = i
		}
		ct, err := ln.packFBS(vals[start:end], end-start, lut)
		if err != nil {
			errs[ci] = err
			return
		}
		ct, err = ln.toCoeffs(ln.maskSlots(ct, e.prefixMask(end-start)))
		if err != nil {
			errs[ci] = err
			return
		}
		flat, err := ln.extract(ct, idx)
		if err != nil {
			errs[ci] = err
			return
		}
		copy(out[start:end], flat)
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}
