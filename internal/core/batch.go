package core

import (
	"fmt"

	"athena/internal/fbs"
	"athena/internal/lwe"
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

// EvaluateEncryptedBatch is the driver of the engine: it runs the
// network's schedule (NewSchedule) over a batch of independently
// encrypted inputs (all under this engine's keys) and returns one
// encrypted logits bundle per input, in order. A single image is a batch
// of one. Only public evaluation material is used, so it works on
// evaluation-only engines.
//
// Every step runs per image, fanned out across the engine's worker lanes
// (each image's state is independent there), after the table its rounds
// apply is looked up once. A conv whose rounds the batch shares takes a
// barrier first: one convInputs call over all images hands each its
// inputs, so the dominant FBS cost is paid once per round, whoever its
// windows belong to.
func (e *Engine) EvaluateEncryptedBatch(q *qnn.QNetwork, ins []*EncryptedInput) ([]*EncryptedLogits, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	s, err := newSchedule(q, e.P.T, e.Ctx.N, e.margin, len(ins))
	if err != nil {
		return nil, err
	}
	states := make([]inferState, len(ins))
	for i, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("core: input %d: %w", i, errNilInput)
		}
		if in.model != q.Name {
			return nil, fmt.Errorf("core: input %d encrypted for model %q, evaluating %q", i, in.model, q.Name)
		}
		states[i].inputs = in.inputs
	}
	defer e.flushStats()

	for i := range s.Steps {
		step := &s.Steps[i]
		// The builder gives every round of a step one table.
		var ev *fbs.Evaluator
		if len(step.Rounds) > 0 && step.Rounds[0].Table.Fn != nil {
			if ev, err = e.w0.lut(step.Rounds[0].Table.Span, step.Rounds[0].Table.Fn); err != nil {
				return nil, err
			}
		}
		if step.Shared {
			sets := make([][]lwe.Ciphertext, len(states))
			for j := range states {
				sets[j] = states[j].vals
			}
			inputs, err := e.w0.convInputs(step.Plan, step.Rounds, sets, 0, ev)
			if err != nil {
				return nil, err
			}
			for j := range states {
				states[j].inputs = inputs[j]
			}
		}
		errs := make([]error, len(states))
		e.w0.forEach(len(states), func(ln *evalWorker, img int) {
			errs[img] = ln.run(step, img, len(states), &states[img], ev)
		})
		if err := par.FirstErr(errs); err != nil {
			return nil, err
		}
	}

	out := make([]*EncryptedLogits, len(states))
	for i := range states {
		out[i] = &EncryptedLogits{model: q.Name, final: states[i].final}
	}
	return out, nil
}
