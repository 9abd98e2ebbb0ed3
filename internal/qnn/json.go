package qnn

import (
	"encoding/json"
	"fmt"
	"io"

	"athena/internal/coeffenc"
)

// JSON model format: a stable, human-inspectable serialization of a
// quantized network (weights, scales, fused activations, structure).
// Trained+quantized models can be saved once and shipped to the
// inference side.

type jsonNetwork struct {
	Format  string      `json:"format"`
	Name    string      `json:"name"`
	InC     int         `json:"in_c"`
	InH     int         `json:"in_h"`
	InW     int         `json:"in_w"`
	WBits   int         `json:"w_bits"`
	ABits   int         `json:"a_bits"`
	InScale float64     `json:"in_scale"`
	Blocks  []jsonBlock `json:"blocks"`
}

type jsonBlock struct {
	Kind     string   `json:"kind"` // "seq" or "residual"
	Ops      []jsonOp `json:"ops,omitempty"`
	Body     []jsonOp `json:"body,omitempty"`
	Shortcut []jsonOp `json:"shortcut,omitempty"`
	ActBits  int      `json:"act_bits,omitempty"`
	Mult     float64  `json:"multiplier,omitempty"`
}

type jsonOp struct {
	Kind string `json:"kind"` // "conv", "maxpool", "avgpool"

	// conv fields
	Shape      *coeffenc.ConvShape `json:"shape,omitempty"`
	Weights    [][][][]int64       `json:"weights,omitempty"`
	Bias       []int64             `json:"bias,omitempty"`
	Act        string              `json:"act,omitempty"`
	Multiplier float64             `json:"multiplier,omitempty"`
	ActBits    int                 `json:"act_bits,omitempty"`
	IsDense    bool                `json:"is_dense,omitempty"`
	InScale    float64             `json:"in_scale,omitempty"`
	WScale     float64             `json:"w_scale,omitempty"`
	OutScale   float64             `json:"out_scale,omitempty"`
	MaxAcc     int64               `json:"max_acc,omitempty"`

	// pool fields
	K int `json:"k,omitempty"`
}

const jsonFormat = "athena-qnetwork-v1"

var actNames = map[Activation]string{
	ActNone: "none", ActReLU: "relu", ActSigmoid: "sigmoid", ActGELU: "gelu",
}

func actByName(s string) (Activation, error) {
	for a, n := range actNames {
		if n == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("qnn: unknown activation %q", s)
}

func opToJSON(op QOp) (jsonOp, error) {
	switch o := op.(type) {
	case *QConv:
		shape := o.Shape
		return jsonOp{
			Kind: "conv", Shape: &shape, Weights: o.Weights, Bias: o.Bias,
			Act: actNames[o.Act], Multiplier: o.Multiplier, ActBits: o.ActBits,
			IsDense: o.IsDense, InScale: o.InScale, WScale: o.WScale,
			OutScale: o.OutScale, MaxAcc: o.MaxAcc,
		}, nil
	case *QMaxPool:
		return jsonOp{Kind: "maxpool", K: o.K}, nil
	case *QAvgPool:
		return jsonOp{Kind: "avgpool", K: o.K}, nil
	}
	return jsonOp{}, fmt.Errorf("qnn: unsupported op %T", op)
}

func opFromJSON(j jsonOp) (QOp, error) {
	switch j.Kind {
	case "conv":
		if j.Shape == nil {
			return nil, fmt.Errorf("qnn: conv without shape")
		}
		act, err := actByName(j.Act)
		if err != nil {
			return nil, err
		}
		return &QConv{
			Shape: *j.Shape, Weights: j.Weights, Bias: j.Bias,
			Act: act, Multiplier: j.Multiplier, ActBits: j.ActBits,
			IsDense: j.IsDense, InScale: j.InScale, WScale: j.WScale,
			OutScale: j.OutScale, MaxAcc: j.MaxAcc,
		}, nil
	case "maxpool":
		return &QMaxPool{K: j.K}, nil
	case "avgpool":
		return &QAvgPool{K: j.K}, nil
	}
	return nil, fmt.Errorf("qnn: unknown op kind %q", j.Kind)
}

func opsToJSON(ops QSeq) ([]jsonOp, error) {
	out := make([]jsonOp, len(ops))
	for i, op := range ops {
		j, err := opToJSON(op)
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

func opsFromJSON(js []jsonOp) (QSeq, error) {
	out := make(QSeq, len(js))
	for i, j := range js {
		op, err := opFromJSON(j)
		if err != nil {
			return nil, err
		}
		out[i] = op
	}
	return out, nil
}

// WriteJSON serializes the network.
func (q *QNetwork) WriteJSON(w io.Writer) error {
	jn := jsonNetwork{
		Format: jsonFormat, Name: q.Name,
		InC: q.InC, InH: q.InH, InW: q.InW,
		WBits: q.WBits, ABits: q.ABits, InScale: q.InScale,
	}
	for _, b := range q.Blocks {
		switch blk := b.(type) {
		case QSeq:
			ops, err := opsToJSON(blk)
			if err != nil {
				return err
			}
			jn.Blocks = append(jn.Blocks, jsonBlock{Kind: "seq", Ops: ops})
		case *QResidual:
			body, err := opsToJSON(blk.Body)
			if err != nil {
				return err
			}
			short, err := opsToJSON(blk.Shortcut)
			if err != nil {
				return err
			}
			jn.Blocks = append(jn.Blocks, jsonBlock{
				Kind: "residual", Body: body, Shortcut: short,
				ActBits: blk.ActBits, Mult: blk.Multiplier,
			})
		default:
			return fmt.Errorf("qnn: unsupported block %T", b)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jn)
}

// ReadJSONNetwork deserializes a network written by WriteJSON. A model
// file is outside input: the network is validated against the geometry
// its ops run on, so every network it returns can be evaluated.
func ReadJSONNetwork(r io.Reader) (*QNetwork, error) {
	var jn jsonNetwork
	if err := json.NewDecoder(r).Decode(&jn); err != nil {
		return nil, err
	}
	if jn.Format != jsonFormat {
		return nil, fmt.Errorf("qnn: unsupported model format %q", jn.Format)
	}
	q := &QNetwork{
		Name: jn.Name, InC: jn.InC, InH: jn.InH, InW: jn.InW,
		WBits: jn.WBits, ABits: jn.ABits, InScale: jn.InScale,
	}
	for _, b := range jn.Blocks {
		switch b.Kind {
		case "seq":
			ops, err := opsFromJSON(b.Ops)
			if err != nil {
				return nil, err
			}
			q.Blocks = append(q.Blocks, ops)
		case "residual":
			body, err := opsFromJSON(b.Body)
			if err != nil {
				return nil, err
			}
			short, err := opsFromJSON(b.Shortcut)
			if err != nil {
				return nil, err
			}
			q.Blocks = append(q.Blocks, &QResidual{
				Body: body, Shortcut: short, ActBits: b.ActBits, Multiplier: b.Mult,
			})
		default:
			return nil, fmt.Errorf("qnn: unknown block kind %q", b.Kind)
		}
	}
	if err := q.validate(); err != nil {
		return nil, fmt.Errorf("qnn: invalid model: %w", err)
	}
	return q, nil
}

// maxValues bounds a model's input volume, so that no product of its
// dimensions overflows.
const maxValues = 1 << 24

// dims is the C×H×W geometry of the values between two ops.
type dims struct{ c, h, w int }

// validate checks every op of q against the geometry it runs on, from
// the input's InC×InH×InW on: a conv's shape, weights [Cout][Cin][K][K]
// and bias [Cout], a pool's window, equal residual branches, and every
// activation width in [2, 16]. An op that failed one of these would
// panic at its first evaluation.
func (q *QNetwork) validate() error {
	if err := checkBits(q.ABits); err != nil {
		return fmt.Errorf("a_bits: %w", err)
	}
	if q.InC < 1 || q.InH < 1 || q.InW < 1 || q.InC > maxValues/q.InH/q.InW {
		return fmt.Errorf("input geometry %d×%d×%d", q.InC, q.InH, q.InW)
	}
	d := dims{q.InC, q.InH, q.InW}
	for bi, b := range q.Blocks {
		var err error
		switch blk := b.(type) {
		case QSeq:
			d, err = checkOps(blk, d)
		case *QResidual:
			d, err = blk.check(d)
		}
		if err != nil {
			return fmt.Errorf("block %d: %w", bi, err)
		}
	}
	return nil
}

// check validates a residual block on input geometry d.
func (r *QResidual) check(d dims) (dims, error) {
	if err := checkBits(r.ActBits); err != nil {
		return d, fmt.Errorf("act_bits: %w", err)
	}
	body, err := checkOps(r.Body, d)
	if err != nil {
		return d, fmt.Errorf("body: %w", err)
	}
	short, err := checkOps(r.Shortcut, d)
	if err != nil {
		return d, fmt.Errorf("shortcut: %w", err)
	}
	if body != short {
		return d, fmt.Errorf("body gives %d×%d×%d, shortcut %d×%d×%d", body.c, body.h, body.w, short.c, short.h, short.w)
	}
	return body, nil
}

// checkOps validates a sequence of ops on input geometry d and returns
// the geometry of its output.
func checkOps(ops QSeq, d dims) (dims, error) {
	for i, op := range ops {
		var err error
		switch o := op.(type) {
		case *QConv:
			d, err = o.check(d)
		case *QMaxPool:
			d, err = checkPool(o.K, d)
		case *QAvgPool:
			d, err = checkPool(o.K, d)
		}
		if err != nil {
			return d, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return d, nil
}

// check validates a conv on input geometry d: a dense layer reads the
// flattened input, any other conv exactly d, and its padding is less
// than its kernel, which fits the padded input.
func (q *QConv) check(d dims) (dims, error) {
	s := q.Shape
	if err := checkBits(q.ActBits); err != nil {
		return d, fmt.Errorf("act_bits: %w", err)
	}
	want := coeffenc.ConvShape{H: d.h, W: d.w, Cin: d.c, Cout: s.Cout, K: s.K, Stride: s.Stride, Pad: s.Pad}
	if q.IsDense {
		want = coeffenc.FCShape(d.c*d.h*d.w, s.Cout)
	}
	if s != want {
		return d, fmt.Errorf("shape %+v on a %d×%d×%d input", s, d.c, d.h, d.w)
	}
	if s.Cout < 1 || s.Stride < 1 || s.Pad < 0 || s.Pad >= s.K || s.K > s.H+2*s.Pad || s.K > s.W+2*s.Pad {
		return d, fmt.Errorf("shape %+v", s)
	}
	if len(q.Bias) != s.Cout {
		return d, fmt.Errorf("%d biases for %d outputs", len(q.Bias), s.Cout)
	}
	if len(q.Weights) != s.Cout {
		return d, fmt.Errorf("weights for %d of %d outputs", len(q.Weights), s.Cout)
	}
	for _, ws := range q.Weights {
		if len(ws) != s.Cin {
			return d, fmt.Errorf("weights for %d of %d input channels", len(ws), s.Cin)
		}
		for _, plane := range ws {
			if len(plane) != s.K {
				return d, fmt.Errorf("a kernel of %d rows, not %d", len(plane), s.K)
			}
			for _, row := range plane {
				if len(row) != s.K {
					return d, fmt.Errorf("a kernel row of %d weights, not %d", len(row), s.K)
				}
			}
		}
	}
	return dims{s.Cout, s.OutH(), s.OutW()}, nil
}

// checkPool validates a k×k pool on input geometry d.
func checkPool(k int, d dims) (dims, error) {
	if k < 1 || k > d.h || k > d.w {
		return d, fmt.Errorf("pool window %d on a %d×%d input", k, d.h, d.w)
	}
	return dims{d.c, d.h / k, d.w / k}, nil
}

// checkBits validates an activation width: the remap clamps to
// 2^(bits-1) − 1.
func checkBits(bits int) error {
	if bits < 2 || bits > 16 {
		return fmt.Errorf("%d outside [2, 16]", bits)
	}
	return nil
}
