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

// inferState is one image's state between steps.
type inferState struct {
	// vals holds the image's values as LWE ciphertexts at modulus t, all
	// C·H·W of them in row-major (c, y, x) order, which is also the
	// flatten order a dense layer reads; a max tree's candidates, window
	// after window, between its levels. held is a residual block's input,
	// or its body while the shortcut runs.
	vals, held []lwe.Ciphertext
	// inputs holds the next linear layer's coefficient-encoded inputs,
	// consumed once: the client's encryptions before the first layer, or
	// what the batch barrier prepared for this image.
	inputs []*bfv.Ciphertext
	final  *finalResult // the last layer's accumulators, once it has run
}

var errNilInput = errors.New("core: nil encrypted input")

// finalResult holds the terminal layer's accumulator ciphertexts for
// decryption.
type finalResult struct {
	conv *qnn.QConv
	plan *coeffenc.Plan
	accs []*bfv.Ciphertext
}

// run advances image img's state by step s, whose rounds apply ev.
func (wk *evalWorker) run(s *Step, img, batch int, st *inferState, ev *fbs.Evaluator) error {
	e, rounds := wk.e, s.Rounds
	if !s.Shared && len(rounds) > 0 {
		r := len(rounds) / batch // every image has as many, image after image
		rounds = rounds[img*r : (img+1)*r]
	}
	var err error
	switch s.Kind {
	case StepConv:
		return wk.convLayer(s, rounds, img, st, ev)
	case StepMaxLevel:
		return wk.maxLevel(s.K, rounds, st, ev)
	}
	if len(rounds) > 0 {
		if st.vals, err = wk.batchLUT(st.vals, rounds, ev); err != nil {
			return err
		}
	}
	switch s.Kind {
	case StepFork:
		st.held = st.vals
	case StepBranch:
		st.vals, st.held = st.held, st.vals
	case StepJoin:
		for i, h := range st.held {
			st.vals[i] = e.addLWE(h, st.vals[i], false)
			wk.stats.LWEAdds++
		}
		st.held = nil
	case StepMaxPool:
		st.vals = windowValues(s, st.vals)
	case StepAvgPool:
		// Each window's sum starts from its first value.
		terms, kk := windowValues(s, st.vals), s.K*s.K
		st.vals = make([]lwe.Ciphertext, len(terms)/kk)
		for w := range st.vals {
			st.vals[w] = terms[w*kk]
			for _, v := range terms[w*kk+1 : (w+1)*kk] {
				st.vals[w] = e.addLWE(st.vals[w], v, false)
				wk.stats.LWEAdds++
			}
		}
	}
	return nil
}

// convLayer runs one linear layer on inputs prepared already — the
// client's before the first layer, or the batch barrier's — or packed
// here in the image's rounds: accumulate, then extract, except that the
// last op stops at its accumulators, which are the encrypted logits.
func (wk *evalWorker) convLayer(s *Step, rounds []Round, img int, st *inferState, ev *fbs.Evaluator) error {
	e, q, plan, inputs := wk.e, s.Conv, s.Plan, st.inputs
	st.inputs = nil
	switch {
	case s.Rounds == nil:
		// Client ciphertexts arrive at the full chain — drop them to the
		// post level so the accumulation runs on the short chain like
		// every later layer.
		if len(inputs) != plan.InBatches {
			return fmt.Errorf("core: %d input ciphertexts, plan expects %d", len(inputs), plan.InBatches)
		}
		dropped := make([]*bfv.Ciphertext, len(inputs))
		for i, ct := range inputs {
			var err error
			if dropped[i], err = e.Ctx.ModDownWith(ct, e.ctxP.Level(), &wk.rescale); err != nil {
				return err
			}
		}
		inputs = dropped
	case !s.Shared:
		prepared, err := wk.convInputs(plan, rounds, [][]lwe.Ciphertext{st.vals}, img, ev)
		if err != nil {
			return err
		}
		inputs = prepared[0]
	}
	accs, valid := wk.convAccumulate(q, plan, inputs)
	if s.Last {
		st.vals, st.final = nil, &finalResult{conv: q, plan: plan, accs: accs}
		return nil
	}
	if t := e.P.T; q.MaxAcc >= int64(t/2) {
		return fmt.Errorf("core: %s accumulator bound %d exceeds t/2 = %d", q.OpName(), q.MaxAcc, t/2)
	}
	out := make([]lwe.Ciphertext, q.Shape.Outputs())
	oh, ow := q.Shape.OutH(), q.Shape.OutW()
	for ob, acc := range accs {
		entries := valid[ob]
		idx := make([]int, len(entries))
		for i, en := range entries {
			idx[i] = en.Coeff
		}
		cts, err := wk.extract(acc, idx)
		if err != nil {
			return err
		}
		for i, en := range entries {
			out[(en.Cout*oh+en.Y)*ow+en.X] = cts[i]
		}
	}
	st.vals = out
	return nil
}

// windowValues lays out every K×K window's values, window after window
// in (c, y, x) order: a max tree's candidates, or an average's terms.
func windowValues(s *Step, in []lwe.Ciphertext) []lwe.Ciphertext {
	oh, ow := s.H/s.K, s.W/s.K
	out := make([]lwe.Ciphertext, 0, s.C*oh*ow*s.K*s.K)
	for c := 0; c < s.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for i := 0; i < s.K; i++ {
					for j := 0; j < s.K; j++ {
						out = append(out, in[(c*s.H+y*s.K+i)*s.W+x*s.K+j])
					}
				}
			}
		}
	}
	return out
}

// maxLevel runs one level of the max tree on the image's candidates:
// pairs (2j, 2j+1) of every window become max(a,b) = b + ReLU(a−b), the
// ReLUs in rounds, and an odd last candidate is carried.
func (wk *evalWorker) maxLevel(m int, rounds []Round, st *inferState, relu *fbs.Evaluator) error {
	e, cands := wk.e, st.vals
	windows, pairs := len(cands)/m, m/2
	diffs := make([]lwe.Ciphertext, 0, windows*pairs)
	for w := 0; w < windows; w++ {
		for j := 0; j < pairs; j++ {
			diffs = append(diffs, e.addLWE(cands[w*m+2*j], cands[w*m+2*j+1], true))
			wk.stats.LWEAdds++
		}
	}
	relus, err := wk.batchLUT(diffs, rounds, relu)
	if err != nil {
		return err
	}
	next := make([]lwe.Ciphertext, 0, windows*((m+1)/2))
	for w := 0; w < windows; w++ {
		for j := 0; j < pairs; j++ {
			next = append(next, e.addLWE(cands[w*m+2*j+1], relus[w*pairs+j], false)) // max(a,b)
			wk.stats.LWEAdds++
		}
		if m%2 == 1 {
			next = append(next, cands[w*m+m-1])
		}
	}
	st.vals = next
	return nil
}

// batchLUT applies lut to a flat list of LWE values in rounds over
// values (valueRounds) via pack→FBS→S2C→extract, preserving order. The
// rounds are independent and fan out across worker lanes; each writes
// only its own window of out.
func (wk *evalWorker) batchLUT(vals []lwe.Ciphertext, rounds []Round, lut *fbs.Evaluator) ([]lwe.Ciphertext, error) {
	n := wk.e.Ctx.N
	out := make([]lwe.Ciphertext, len(vals))
	errs := make([]error, len(rounds))
	wk.forEach(len(rounds), func(ln *evalWorker, ri int) {
		w := rounds[ri].Windows[0]
		start, end := w.Batch*n, w.Batch*n+w.Len
		idx := make([]int, w.Len)
		for i := range idx {
			idx[i] = i
		}
		// S2C maps slot i to coefficient i: the values are coefficients
		// [0, Len), and the slots past them are never read.
		ct, err := ln.packFBS(vals[start:end], w.Valid, lut)
		if err != nil {
			errs[ri] = err
			return
		}
		// ct is packFBS's own result: S2C runs in place.
		if err := ln.toCoeffs(ct, ct); err != nil {
			errs[ri] = err
			return
		}
		flat, err := ln.extract(ct, idx)
		if err != nil {
			errs[ri] = err
			return
		}
		copy(out[start:end], flat)
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}
