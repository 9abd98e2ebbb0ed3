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
	// prepared for this image in rounds shared across the batch. span is
	// the proven interval of the values they encode.
	inputs []*bfv.Ciphertext
	plan   *coeffenc.Plan
	span   qnn.Interval

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
	// The sum of two extracted values carries two e_ms into the join
	// table, which stays full: its image bounds the block's output.
	sum := e.domain(body.span.Add(short.span), 2*e.margin)
	out := &valSet{C: body.C, H: body.H, W: body.W, vals: make([]lwe.Ciphertext, len(body.vals)), span: qnn.Image(r.JoinRemap, sum)}
	for i, b := range body.vals {
		out.vals[i] = e.addLWE(b, short.vals[i])
		wk.stats.LWEAdds++
	}
	if out.pending, err = wk.lut(e.whole, r.JoinRemap); err != nil {
		return nil, err
	}
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
	// A window's rounded mean lies between its least and its greatest.
	out := &valSet{C: in.C, H: oh, W: ow, vals: make([]lwe.Ciphertext, 0, in.C*oh*ow), span: vs.span}
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				acc := e.zeroLWE()
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						acc = e.addLWE(acc, in.vals[in.idx(c, y*p.K+i, x*p.K+j)])
						wk.stats.LWEAdds++
					}
				}
				out.vals = append(out.vals, acc)
			}
		}
	}
	div := scale * int64(p.K*p.K)
	out.pending, err = wk.divideFor(int(div))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, div) }
	return out, nil
}

// maxPool runs the PEGASUS-style max tree: max(a,b) = b + ReLU(a−b).
// Each level pairs candidates (2j, 2j+1) of every window and carries an
// odd last one, so m candidates become ⌈m/2⌉ and a K×K window takes
// ⌈log₂ K²⌉ levels; a level's ReLUs over all windows are one batched
// LUT round. The tree operates in a scaled domain so the extraction
// noise of each ReLU round stays far below one activation step; the
// divide back is left pending for the consumer's LUT.
func (wk *evalWorker) maxPool(p *qnn.QMaxPool, vs *valSet, aMax int64) (*valSet, error) {
	e := wk.e
	scale := e.poolScale(aMax)
	in, err := wk.materializeScaled(vs, scale)
	if err != nil {
		return nil, err
	}
	oh, ow := in.H/p.K, in.W/p.K
	windows, m := in.C*oh*ow, p.K*p.K
	// cands holds every window's m candidates, window after window in
	// (c, y, x) order.
	cands := make([]lwe.Ciphertext, 0, windows*m)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for i := 0; i < p.K; i++ {
					for j := 0; j < p.K; j++ {
						cands = append(cands, in.vals[in.idx(c, y*p.K+i, x*p.K+j)])
					}
				}
			}
		}
	}
	relu, err := wk.reluFull()
	if err != nil {
		return nil, err
	}
	for m > 1 {
		pairs := m / 2
		diffs := make([]lwe.Ciphertext, 0, windows*pairs)
		for w := 0; w < windows; w++ {
			for j := 0; j < pairs; j++ {
				diffs = append(diffs, e.subLWE(cands[w*m+2*j], cands[w*m+2*j+1]))
				wk.stats.LWEAdds++
			}
		}
		relus, err := wk.batchLUT(diffs, relu)
		if err != nil {
			return nil, err
		}
		next := make([]lwe.Ciphertext, 0, windows*((m+1)/2))
		for w := 0; w < windows; w++ {
			for j := 0; j < pairs; j++ {
				next = append(next, e.addLWE(cands[w*m+2*j+1], relus[w*pairs+j])) // max(a,b)
				wk.stats.LWEAdds++
			}
			if m%2 == 1 {
				next = append(next, cands[w*m+m-1])
			}
		}
		cands, m = next, (m+1)/2
	}
	// A window's maximum is one of its values.
	out := &valSet{C: in.C, H: oh, W: ow, vals: cands, span: vs.span}
	out.pending, err = wk.divideFor(int(scale))
	if err != nil {
		return nil, err
	}
	out.fn = func(x int64) int64 { return roundDiv(x, scale) }
	return out, nil
}

// reluFull is the plain ReLU LUT (no clamp change) used by the max tree.
func (wk *evalWorker) reluFull() (*fbs.Evaluator, error) {
	return wk.reluClampFor(63) // lim = 2^62-1: effectively unclamped ReLU
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
	wk.forEach(chunks, func(ln *evalWorker, ci int) {
		start := ci * n
		end := start + n
		if end > len(vals) {
			end = len(vals)
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = i
		}
		// S2C maps slot i to coefficient i: the values are coefficients
		// [0, end−start), and the slots past them are never read.
		ct, err := ln.packFBS(vals[start:end], end-start, lut)
		if err != nil {
			errs[ci] = err
			return
		}
		// ct is packFBS's own result: S2C runs in place.
		if err := ln.toCoeffs(ct, ct); err != nil {
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
