package core

import (
	"bufio"
	"fmt"
	"io"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// Wire formats for the client/server boundary: an EncryptedInput travels
// client → server, an EncryptedLogits travels back. Both sides must hold
// the same network description (by name) and engine parameters; the
// ciphertext payloads reuse the bfv wire format.

const (
	wireInputMagic  = 0x41494e31 // "AIN1"
	wireOutputMagic = 0x414f5531 // "AOU1"
)

func writeHeader(w *bufio.Writer, magic uint64, model string, count int) error {
	if err := ring.WriteWords(w, magic, uint64(len(model)), uint64(count)); err != nil {
		return err
	}
	_, err := w.WriteString(model)
	return err
}

func readHeader(r *bufio.Reader, magic uint64) (model string, count int, err error) {
	wr := ring.WordReader{R: r}
	m, err := wr.Word()
	if err != nil {
		return "", 0, err
	}
	if m != magic {
		return "", 0, fmt.Errorf("core: bad wire magic %#x", m)
	}
	nameLen, err := wr.Word()
	if err != nil {
		return "", 0, err
	}
	if nameLen > 1024 {
		return "", 0, fmt.Errorf("core: implausible model name length %d", nameLen)
	}
	cnt, err := wr.Word()
	if err != nil {
		return "", 0, err
	}
	if cnt > 1<<20 {
		return "", 0, fmt.Errorf("core: implausible ciphertext count %d", cnt)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", 0, err
	}
	return string(name), int(cnt), nil
}

// WriteEncryptedInput serializes the client's input bundle.
func (e *Engine) WriteEncryptedInput(in *EncryptedInput, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, wireInputMagic, in.model, len(in.inputs)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for _, ct := range in.inputs {
		if err := e.Ctx.WriteCiphertext(ct, w); err != nil {
			return err
		}
	}
	return nil
}

// ReadEncryptedInput deserializes an input bundle for network q,
// recomputing the layer plan from the network description.
func (e *Engine) ReadEncryptedInput(q *qnn.QNetwork, r io.Reader) (*EncryptedInput, error) {
	br := bufio.NewReader(r)
	model, count, err := readHeader(br, wireInputMagic)
	if err != nil {
		return nil, err
	}
	if model != q.Name {
		return nil, fmt.Errorf("core: input for model %q, expected %q", model, q.Name)
	}
	first, err := firstConv(q)
	if err != nil {
		return nil, err
	}
	plan, err := coeffenc.NewPlan(first.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	if count != plan.InBatches {
		return nil, fmt.Errorf("core: %d input ciphertexts, plan expects %d", count, plan.InBatches)
	}
	inputs := make([]*bfv.Ciphertext, count)
	for i := range inputs {
		ct, err := e.Ctx.ReadCiphertext(br)
		if err != nil {
			return nil, err
		}
		inputs[i] = ct
	}
	return &EncryptedInput{model: model, inputs: inputs, plan: plan}, nil
}

// WriteEncryptedLogits serializes the server's result bundle.
func (e *Engine) WriteEncryptedLogits(out *EncryptedLogits, w io.Writer) error {
	if out == nil || out.final == nil {
		return errNoFinal
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, wireOutputMagic, out.model, len(out.final.accs)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for _, ct := range out.final.accs {
		if err := e.Ctx.WriteCiphertext(ct, w); err != nil {
			return err
		}
	}
	return nil
}

// ReadEncryptedLogits deserializes a result bundle for network q.
func (e *Engine) ReadEncryptedLogits(q *qnn.QNetwork, r io.Reader) (*EncryptedLogits, error) {
	br := bufio.NewReader(r)
	model, count, err := readHeader(br, wireOutputMagic)
	if err != nil {
		return nil, err
	}
	if model != q.Name {
		return nil, fmt.Errorf("core: logits for model %q, expected %q", model, q.Name)
	}
	last, err := lastConv(q)
	if err != nil {
		return nil, err
	}
	plan, err := coeffenc.NewPlan(last.Shape, e.Ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, err
	}
	if count != plan.OutBatches {
		return nil, fmt.Errorf("core: %d result ciphertexts, plan expects %d", count, plan.OutBatches)
	}
	accs := make([]*bfv.Ciphertext, count)
	for i := range accs {
		ct, err := e.Ctx.ReadCiphertext(br)
		if err != nil {
			return nil, err
		}
		accs[i] = ct
	}
	return &EncryptedLogits{model: model, final: &finalResult{conv: last, plan: plan, accs: accs}}, nil
}

// lastConv returns the network's final linear layer.
func lastConv(q *qnn.QNetwork) (*qnn.QConv, error) {
	if len(q.Blocks) == 0 {
		return nil, fmt.Errorf("core: empty network")
	}
	seq, ok := q.Blocks[len(q.Blocks)-1].(qnn.QSeq)
	if !ok || len(seq) == 0 {
		return nil, fmt.Errorf("core: network must end with a QSeq")
	}
	c, ok := seq[len(seq)-1].(*qnn.QConv)
	if !ok {
		return nil, fmt.Errorf("core: network must end with a linear layer")
	}
	return c, nil
}
