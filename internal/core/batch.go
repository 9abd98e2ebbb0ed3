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
// normally fused into its next convolution's input packing; where
// sharing lowers the number of FBS rounds (sharingSaves), the driver
// instead takes a barrier: the pending activations of all images are
// packed together — the FBS slot capacity usually dwarfs one image's
// layer — so the dominant FBS cost is paid once per ⌈values·B/N⌉ packs,
// the results are redistributed to their images as LWE values, and each
// image's convolution consumes them with an identity (FBS-free) packing
// pass.
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
		states[i] = &inferState{firstInputs: in.inputs, firstPlan: in.plan}
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
				if c, ok := op.(*qnn.QConv); ok && e.sharesFBS(c, states) {
					if err := e.materializeShared(states); err != nil {
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

// sharesFBS decides, from the batch itself, whether the images' pending
// LUT is applied at a shared barrier before the linear layer next or
// fused into each image's own input packing.
func (e *Engine) sharesFBS(next *qnn.QConv, states []*inferState) bool {
	pending := make([]int, len(states))
	for i, st := range states {
		// Images can only share a pack under the same LUT (a residual
		// join, for one, compiles its own per image).
		if st.vs == nil || st.vs.pending == nil || st.vs.pending != states[0].vs.pending {
			return false
		}
		pending[i] = len(st.vs.vals)
	}
	plan, err := coeffenc.NewPlan(next.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return false // convLayer reports it
	}
	return sharingSaves(pending, e.Ctx.N, plan.InBatches)
}

// sharingSaves is the share/fuse rule. Fused, every image pays the next
// layer's inBatches FBS rounds; shared, the batch pays one round per
// slots pending values, whoever they belong to. Share only when that is
// fewer rounds — never for one image, which has nobody to share with.
func sharingSaves(pending []int, slots, inBatches int) bool {
	if len(pending) < 2 {
		return false
	}
	total := 0
	for _, n := range pending {
		total += n
	}
	return (total+slots-1)/slots < len(pending)*inBatches
}

// materializeShared is the batch's FBS barrier: it applies the pending
// LUT all images carry in packs filled across the batch and replaces
// each image's value set with its materialized values.
func (e *Engine) materializeShared(states []*inferState) error {
	sets := make([]*valSet, len(states))
	for i, st := range states {
		sets[i] = st.vs
	}
	sets, err := e.w0.materializeSets(sets)
	if err != nil {
		return err
	}
	for i, vs := range sets {
		states[i] = &inferState{vs: vs}
	}
	return nil
}
