package core

import (
	"fmt"

	"athena/internal/coeffenc"
	"athena/internal/par"
	"athena/internal/qnn"
)

// InferBatch runs the same network on B inputs: EncryptInput per image,
// one EvaluateEncryptedBatch, DecryptLogits per image. This realizes the
// throughput side of the paper's "batch processing of precise
// non-linear functions".
func (e *Engine) InferBatch(q *qnn.QNetwork, xs []*qnn.IntTensor) ([][]int64, error) {
	// Encryption stays serial: it consumes the engine's PRNG stream, and
	// the ciphertext bytes must not depend on scheduling.
	ins := make([]*EncryptedInput, len(xs))
	for i, x := range xs {
		in, err := e.EncryptInput(q, x)
		if err != nil {
			return nil, fmt.Errorf("core: input %d: %w", i, err)
		}
		ins[i] = in
	}
	outs, err := e.EvaluateEncryptedBatch(q, ins)
	if err != nil {
		return nil, err
	}
	logits := make([][]int64, len(outs))
	for i, out := range outs {
		if logits[i], err = e.DecryptLogits(out); err != nil {
			return nil, err
		}
	}
	return logits, nil
}

// EvaluateEncryptedBatch is the block driver of the engine: it runs the
// network over a batch of independently encrypted inputs (all under
// this engine's keys) and returns one encrypted logits bundle per
// input, in order. A single image is a batch of one. Only public
// evaluation material is used, so it works on evaluation-only engines.
//
// Every op runs per image, fanned out across the engine's worker lanes
// (each image's state is independent there). An image's pending LUT is
// fused into its next convolution's input packing, where the layer's
// input batches — windows of per = CB·EH·EW slots — fill LUT rounds G =
// ⌊N/per⌋ at a time (convInputs). Where laying the windows of the whole
// batch into common rounds needs fewer of them (sharesFBS), the driver
// takes a barrier before the layer: the same convInputs runs once over
// all images and hands each its prepared inputs, so the dominant FBS
// cost is paid once per G windows, whoever they belong to.
func (e *Engine) EvaluateEncryptedBatch(q *qnn.QNetwork, ins []*EncryptedInput) ([]*EncryptedLogits, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(q.Blocks) == 0 {
		return nil, errEmptyNetwork
	}
	states := make([]*inferState, len(ins))
	for i, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("core: input %d: %w", i, errNilInput)
		}
		if in.model != q.Name {
			return nil, fmt.Errorf("core: input %d encrypted for model %q, evaluating %q", i, in.model, q.Name)
		}
		states[i] = &inferState{inputs: in.inputs, plan: in.plan}
	}
	defer e.flushStats()
	aBits := q.ABits
	if aBits < 2 {
		aBits = 8
	}
	aMax := int64(1)<<(aBits-1) - 1

	for bi, b := range q.Blocks {
		switch blk := b.(type) {
		case qnn.QSeq:
			for oi, op := range blk {
				lastOp := bi == len(q.Blocks)-1 && oi == len(blk)-1
				if c, ok := op.(*qnn.QConv); ok {
					if err := e.shareConvInputs(c, states); err != nil {
						return nil, err
					}
				}
				err := e.eachImage(states, func(ln *evalWorker, st *inferState) (*inferState, error) {
					return ln.applyOp(op, st, lastOp, aMax)
				})
				if err != nil {
					return nil, err
				}
			}
		case *qnn.QResidual:
			// Residual joins interleave linear and non-linear work
			// image-locally, so the block runs per image throughout.
			err := e.eachImage(states, func(ln *evalWorker, st *inferState) (*inferState, error) {
				return ln.residualBlock(blk, st)
			})
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: unsupported block %T", b)
		}
	}

	out := make([]*EncryptedLogits, len(states))
	for i, st := range states {
		if st.final == nil {
			return nil, errNoFinal
		}
		out[i] = &EncryptedLogits{model: q.Name, final: st.final}
	}
	return out, nil
}

// eachImage advances every image's state by step, fanned out across the
// worker group; every image is a heavy item (at least one linear layer
// or LUT round), so no cost floor applies.
func (e *Engine) eachImage(states []*inferState, step func(*evalWorker, *inferState) (*inferState, error)) error {
	errs := make([]error, len(states))
	e.w0.forEach(len(states), par.Options{MinGrain: 1}, func(ln *evalWorker, i int) {
		st, err := step(ln, states[i])
		if err != nil {
			errs[i] = err
			return
		}
		states[i] = st
	})
	return par.FirstErr(errs)
}

// shareConvInputs is the batch's FBS barrier before the linear layer
// next: when sharesFBS says common rounds are fewer, it prepares every
// image's conv inputs in one convInputs call over the whole batch and
// leaves them in the images' states for convLayer; otherwise it does
// nothing and each image packs its own.
func (e *Engine) shareConvInputs(next *qnn.QConv, states []*inferState) error {
	plan, err := coeffenc.NewPlan(next.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil || !e.sharesFBS(plan, states) {
		return nil // convLayer reports a shape that does not compile
	}
	sets := make([]*valSet, len(states))
	for i, st := range states {
		sets[i] = st.vs
	}
	inputs, err := e.w0.convInputs(plan, sets)
	if err != nil {
		return err
	}
	for i := range states {
		states[i] = &inferState{inputs: inputs[i], plan: plan}
	}
	return nil
}

// sharesFBS decides, from the batch itself, whether the images' conv
// inputs of the layer plan compiles are prepared at a shared barrier or
// by each image on its own. Images can only share a round under the same
// pending LUT (a residual join, for one, compiles its own per image), and
// sharing must pay.
func (e *Engine) sharesFBS(plan *coeffenc.Plan, states []*inferState) bool {
	for _, st := range states {
		if st.vs == nil || st.vs.pending != states[0].vs.pending {
			return false
		}
	}
	g := e.Ctx.N / plan.InputLen()
	return g > 0 && fewerRounds(len(states), plan.InBatches, g)
}

// fewerRounds is the share/fuse rule. A layer's input batches are
// windows that fill LUT rounds g at a time; fused, every image rounds its
// own inBatches windows up to whole rounds, shared, the batch rounds up
// once. Share only when that is fewer rounds — never for one image, which
// has nobody to share with.
func fewerRounds(images, inBatches, g int) bool {
	ceil := func(a int) int { return (a + g - 1) / g }
	return ceil(images*inBatches) < images*ceil(inBatches)
}
