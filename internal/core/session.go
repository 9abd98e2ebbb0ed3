package core

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

// The three-phase inference API makes the client/server boundary
// explicit: the client encrypts its input and decrypts the result; the
// server evaluates the network on ciphertexts only. Engine.Infer remains
// as the convenience wrapper running all three phases.
//
//	enc, _ := engine.EncryptInput(net, x)        // client
//	out, _ := engine.EvaluateEncrypted(net, enc) // server (no secret key use)
//	logits, _ := engine.DecryptLogits(out)       // client

// EncryptedInput is the client's ciphertext bundle for one inference:
// the first linear layer's coefficient-encoded input ciphertexts.
type EncryptedInput struct {
	model  string
	inputs []*bfv.Ciphertext
}

// Size returns the ciphertext count of the bundle.
func (in *EncryptedInput) Size() int { return len(in.inputs) }

// EncryptedLogits is the server's result bundle: the final layer's
// accumulator ciphertexts plus the plan metadata needed to read them.
type EncryptedLogits struct {
	model string
	final *finalResult
}

// InputRangeError reports a quantized input value outside the network's
// domain ±(2^(ABits−1) − 1), which QuantizeInput never leaves and which
// every range-sized table's interval proof assumes.
type InputRangeError struct {
	Index        int // position in the tensor's data
	Value, Limit int64
}

func (err *InputRangeError) Error() string {
	return fmt.Sprintf("core: input value %d at %d outside ±%d", err.Value, err.Index, err.Limit)
}

// EncryptInput encodes and encrypts the quantized input for the
// network's first linear layer (the client-side prologue). A value
// outside the network's input domain is refused with an
// *InputRangeError.
func (e *Engine) EncryptInput(q *qnn.QNetwork, x *qnn.IntTensor) (*EncryptedInput, error) {
	if e.enc == nil {
		return nil, ErrNoSecretKey
	}
	first, err := firstConv(q)
	if err != nil {
		return nil, err
	}
	if x.C != first.Shape.Cin || x.H != first.Shape.H || x.W != first.Shape.W {
		return nil, fmt.Errorf("core: input %dx%dx%d does not match first layer %dx%dx%d",
			x.C, x.H, x.W, first.Shape.Cin, first.Shape.H, first.Shape.W)
	}
	_, lim := activationLimit(q)
	for i, v := range x.Data {
		if v < -lim || v > lim {
			return nil, &InputRangeError{Index: i, Value: v, Limit: lim}
		}
	}
	plan, err := coeffenc.NewPlan(first.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	m3 := x.To3D()
	inputs := make([]*bfv.Ciphertext, plan.InBatches)
	for ib := 0; ib < plan.InBatches; ib++ {
		vec := plan.EncodeInput(m3, ib)
		inputs[ib] = e.enc.Encrypt(e.cod.EncodeCoeffs(vec))
	}
	return &EncryptedInput{model: q.Name, inputs: inputs}, nil
}

// EvaluateEncrypted runs the network on the encrypted input and returns
// the encrypted logits: a batch of one through EvaluateEncryptedBatch.
// Only public material (evaluation keys, packing keys, LWE keyswitching
// keys) is used.
func (e *Engine) EvaluateEncrypted(q *qnn.QNetwork, in *EncryptedInput) (*EncryptedLogits, error) {
	outs, err := e.EvaluateEncryptedBatch(q, []*EncryptedInput{in})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// DecryptLogits recovers the output logits (the client-side epilogue:
// decryption plus the final remap in the clear).
func (e *Engine) DecryptLogits(out *EncryptedLogits) ([]int64, error) {
	if e.dec == nil {
		return nil, ErrNoSecretKey
	}
	if out == nil || out.final == nil {
		return nil, errNoFinal
	}
	f := out.final
	s := f.conv.Shape
	logits := make([]int64, s.Outputs())
	tm := e.Ctx.TMod
	for ob, acc := range f.accs {
		pt := e.dec.Decrypt(acc)
		for _, en := range f.plan.ValidCoeffs(ob) {
			v := tm.Centered(pt.Coeffs[en.Coeff])
			logits[(en.Cout*s.OutH()+en.Y)*s.OutW()+en.X] = f.conv.Remap(v)
		}
	}
	return logits, nil
}
