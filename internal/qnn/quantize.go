package qnn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"athena/internal/coeffenc"
	"athena/internal/par"
)

// QuantConfig controls post-training quantization.
type QuantConfig struct {
	WBits        int     // weight bits (e.g. 7 for w7a7)
	ABits        int     // activation bits
	CalibSamples int     // calibration set size (drawn from the dataset head)
	AccMargin    float64 // safety factor on the calibrated accumulator bound
	// AccCap, when positive, bounds every layer's accumulator magnitude:
	// layers whose calibrated bound exceeds it get their weight scale
	// coarsened until the bound fits. This is how the framework
	// guarantees the MAC results stay inside the plaintext modulus t
	// (the Fig. 4 requirement); set it to just under t/2.
	AccCap int64
	// WClip, in (0, 1], sets the percentile of |w| used as the weight
	// scale anchor; weights beyond it saturate. 1 (or 0, the zero value)
	// anchors on the maximum. Percentile clipping protects per-tensor
	// quantization from the rare outlier weights of folded/standardized
	// layers (standard PTQ calibration practice).
	WClip float64
	// AClip is the same for activation ranges: the calibration percentile
	// used as each layer's output scale anchor (activations beyond it
	// saturate at the remap clamp). 1/0 anchors on the maximum.
	AClip float64
}

// DefaultQuantConfig returns the paper's primary w7a7 setting.
func DefaultQuantConfig() QuantConfig {
	return QuantConfig{WBits: 7, ABits: 7, CalibSamples: 32, AccMargin: 1.3, WClip: 0.999}
}

// Quantize converts a trained float network into an integer QNetwork by
// symmetric per-tensor post-training quantization, calibrating every
// activation scale on calib's leading samples. ReLU layers are fused
// into the preceding linear layer's remap, exactly as the Athena FBS
// merges activation and requantization.
func Quantize(net *Network, calib *Dataset, cfg QuantConfig) (*QNetwork, error) {
	if cfg.WBits < 2 || cfg.WBits > 16 || cfg.ABits < 2 || cfg.ABits > 16 {
		return nil, fmt.Errorf("qnn: quantization bits out of range: w%da%d", cfg.WBits, cfg.ABits)
	}
	if cfg.CalibSamples < 1 {
		cfg.CalibSamples = 16
	}
	if cfg.AccMargin <= 0 {
		cfg.AccMargin = 1.3
	}
	nCal := cfg.CalibSamples
	if nCal > len(calib.Samples) {
		nCal = len(calib.Samples)
	}
	st := &quantState{
		cfg:  cfg,
		aMax: int64(1)<<(cfg.ABits-1) - 1,
		wMax: int64(1)<<(cfg.WBits-1) - 1,
		cur:  make([]*Tensor, nCal),
	}
	for i := 0; i < nCal; i++ {
		st.cur[i] = calib.Samples[i].X
	}
	// Input scale from calibration range.
	st.curScale = maxAbsAll(st.cur) / float64(st.aMax)
	if st.curScale == 0 {
		st.curScale = 1.0 / float64(st.aMax)
	}
	qn := &QNetwork{
		Name: net.Name,
		InC:  net.InC, InH: net.InH, InW: net.InW,
		WBits: cfg.WBits, ABits: cfg.ABits,
		InScale: st.curScale,
	}
	for _, b := range net.Blocks {
		qb, err := st.quantizeBlock(b)
		if err != nil {
			return nil, err
		}
		qn.Blocks = append(qn.Blocks, qb)
	}
	return qn, nil
}

type quantState struct {
	cfg        QuantConfig
	aMax, wMax int64
	cur        []*Tensor // calibration activations at the current point
	curScale   float64
}

func maxAbsAll(ts []*Tensor) float64 {
	m := 0.0
	for _, t := range ts {
		if v := t.AbsMax(); v > m {
			m = v
		}
	}
	return m
}

func (st *quantState) quantizeBlock(b Block) (QBlock, error) {
	switch blk := b.(type) {
	case Seq:
		ops, _, err := st.quantizeSeq(blk, -1)
		return ops, err
	case *Residual:
		return st.quantizeResidual(blk)
	default:
		return nil, fmt.Errorf("qnn: unsupported block type %T", b)
	}
}

// quantizeSeq walks a layer sequence, fusing conv/dense+ReLU pairs. If
// forceScale >= 0, the final linear layer's output scale is pinned (used
// to align residual branches). It returns the resulting QSeq and the
// final activation scale.
func (st *quantState) quantizeSeq(layers Seq, forceScale float64) (QSeq, float64, error) {
	var ops QSeq
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Conv2D, *Dense:
			act := ActNone
			if i+1 < len(layers) {
				switch layers[i+1].(type) {
				case *ReLU:
					act = ActReLU
					i++
				case *Sigmoid:
					act = ActSigmoid
					i++
				case *GELU:
					act = ActGELU
					i++
				}
			}
			pin := -1.0
			if forceScale >= 0 && i == len(layers)-1 {
				pin = forceScale
			}
			op, err := st.quantizeLinear(l, act, pin)
			if err != nil {
				return nil, 0, err
			}
			ops = append(ops, op)
		case *MaxPool:
			ops = append(ops, &QMaxPool{K: l.K})
			st.advanceFloat(l)
		case *AvgPool:
			ops = append(ops, &QAvgPool{K: l.K})
			st.advanceFloat(l)
		case *ReLU, *Sigmoid, *GELU:
			return nil, 0, fmt.Errorf("qnn: standalone activation (not after a linear layer) is unsupported")
		default:
			return nil, 0, fmt.Errorf("qnn: unsupported layer %T", l)
		}
	}
	return ops, st.curScale, nil
}

// advanceFloat pushes the calibration activations through a float layer
// that does not change quantization scale.
func (st *quantState) advanceFloat(l Layer) {
	for i, t := range st.cur {
		st.cur[i] = l.Forward(t, false)
	}
}

// quantizeLinear converts one Conv2D or Dense (+fused act) into a QConv.
func (st *quantState) quantizeLinear(l Layer, act Activation, pinScale float64) (*QConv, error) {
	var (
		shape   coeffenc.ConvShape
		weights [][][][]int64
		biasF   []float64
		isDense bool
	)
	in := st.cur[0]
	switch lay := l.(type) {
	case *Conv2D:
		shape = coeffenc.ConvShape{H: in.H, W: in.W, Cin: lay.Cin, Cout: lay.Cout, K: lay.K, Stride: lay.Stride, Pad: lay.Pad}
		biasF = lay.Bias.W
	case *Dense:
		shape = coeffenc.FCShape(lay.In, lay.Out)
		biasF = lay.Bias.W
		isDense = true
	default:
		return nil, fmt.Errorf("qnn: not a linear layer: %T", l)
	}
	clip := st.cfg.WClip
	if clip <= 0 || clip >= 1 {
		clip = 1 // the maximum
	}
	wAbs := percentileAbs(weightSlab(l), clip)
	if wAbs == 0 {
		wAbs = 1
	}
	wScale := wAbs / float64(st.wMax)
	inScale := st.curScale

	// Quantize weights.
	qw := func(v float64) int64 {
		x := int64(math.Round(v / wScale))
		if x > st.wMax {
			x = st.wMax
		}
		if x < -st.wMax {
			x = -st.wMax
		}
		return x
	}
	switch lay := l.(type) {
	case *Conv2D:
		weights = make([][][][]int64, lay.Cout)
		for co := 0; co < lay.Cout; co++ {
			weights[co] = make([][][]int64, lay.Cin)
			for ci := 0; ci < lay.Cin; ci++ {
				weights[co][ci] = make([][]int64, lay.K)
				for i := 0; i < lay.K; i++ {
					weights[co][ci][i] = make([]int64, lay.K)
					for j := 0; j < lay.K; j++ {
						weights[co][ci][i][j] = qw(lay.w(co, ci, i, j))
					}
				}
			}
		}
	case *Dense:
		weights = make([][][][]int64, lay.Out)
		for o := 0; o < lay.Out; o++ {
			weights[o] = make([][][]int64, lay.In)
			for i := 0; i < lay.In; i++ {
				weights[o][i] = [][]int64{{qw(lay.Weight.W[o*lay.In+i])}}
			}
		}
	}
	bias := make([]int64, len(biasF))
	for i, b := range biasF {
		bias[i] = int64(math.Round(b / (inScale * wScale)))
	}

	// Calibrate the float output for the output scale (post-activation)
	// and the accumulator bound (pre-activation — negative sums matter
	// even when the activation later shrinks them), advancing the
	// calibration activations.
	outMax := 0.0
	preMax := 0.0
	var actSamples []float64
	for i, t := range st.cur {
		o := l.Forward(t, false)
		if v := o.AbsMax(); v > preMax {
			preMax = v
		}
		switch act {
		case ActReLU:
			for j, v := range o.Data {
				if v < 0 {
					o.Data[j] = 0
				}
			}
		case ActSigmoid:
			for j, v := range o.Data {
				o.Data[j] = sigmoid(v)
			}
		case ActGELU:
			for j, v := range o.Data {
				o.Data[j] = gelu(v)
			}
		}
		if v := o.AbsMax(); v > outMax {
			outMax = v
		}
		// Subsample activations for percentile calibration.
		step := 1 + o.Len()/256
		for j := 0; j < o.Len(); j += step {
			actSamples = append(actSamples, o.Data[j])
		}
		st.cur[i] = o
	}
	if clip := st.cfg.AClip; clip > 0 && clip < 1 && len(actSamples) > 0 {
		if p := percentileAbs(actSamples, clip); p > 0 {
			outMax = p
		}
	}
	if outMax == 0 {
		outMax = 1
	}
	if preMax == 0 {
		preMax = 1
	}
	outScale := outMax / float64(st.aMax)
	if pinScale >= 0 {
		outScale = pinScale
	}

	q := &QConv{
		Shape:      shape,
		Weights:    weights,
		Bias:       bias,
		Act:        act,
		Multiplier: inScale * wScale / outScale,
		ActBits:    st.cfg.ABits,
		IsDense:    isDense,
		InScale:    inScale,
		WScale:     wScale,
		OutScale:   outScale,
	}
	// Accumulator bound from the calibrated float range (the float
	// pre-activation sums divided by the accumulator LSB), with margin.
	q.MaxAcc = int64(preMax/(inScale*wScale)*st.cfg.AccMargin) + 8

	// Enforce the plaintext-modulus cap by coarsening the weight scale
	// (Fig. 4: every layer's MAC range must fit t).
	if st.cfg.AccCap > 0 && q.MaxAcc > st.cfg.AccCap {
		factor := float64(q.MaxAcc) / float64(st.cfg.AccCap)
		wScale *= factor
		qw2 := func(v float64) int64 {
			x := int64(math.Round(v / wScale))
			if x > st.wMax {
				x = st.wMax
			}
			if x < -st.wMax {
				x = -st.wMax
			}
			return x
		}
		switch lay := l.(type) {
		case *Conv2D:
			for co := 0; co < lay.Cout; co++ {
				for ci := 0; ci < lay.Cin; ci++ {
					for i := 0; i < lay.K; i++ {
						for j := 0; j < lay.K; j++ {
							weights[co][ci][i][j] = qw2(lay.w(co, ci, i, j))
						}
					}
				}
			}
		case *Dense:
			for o := 0; o < lay.Out; o++ {
				for i := 0; i < lay.In; i++ {
					weights[o][i][0][0] = qw2(lay.Weight.W[o*lay.In+i])
				}
			}
		}
		for i, b := range biasF {
			bias[i] = int64(math.Round(b / (inScale * wScale)))
		}
		q.WScale = wScale
		q.Multiplier = inScale * wScale / outScale
		q.MaxAcc = int64(preMax/(inScale*wScale)*st.cfg.AccMargin) + 8
	}
	st.curScale = outScale
	return q, nil
}

// weightSlab returns the flat weight slice of a linear layer.
func weightSlab(l Layer) []float64 {
	switch lay := l.(type) {
	case *Conv2D:
		return lay.Weight.W
	case *Dense:
		return lay.Weight.W
	}
	return nil
}

// percentileAbs returns the q-th percentile of |xs|.
func percentileAbs(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	abs := make([]float64, len(xs))
	for i, v := range xs {
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	sort.Float64s(abs)
	idx := int(q * float64(len(abs)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(abs) {
		idx = len(abs) - 1
	}
	return abs[idx]
}

func (st *quantState) quantizeResidual(r *Residual) (QBlock, error) {
	inActs := st.cur
	inScale := st.curScale

	// Shortcut branch: identity keeps the input scale; a projection conv
	// gets a free output scale that the body is then pinned to.
	var (
		shortOps   QSeq
		shortScale float64
		shortActs  []*Tensor
	)
	if len(r.Shortcut) > 0 {
		st.cur = cloneTensors(inActs)
		st.curScale = inScale
		ops, sc, err := st.quantizeSeq(r.Shortcut, -1)
		if err != nil {
			return nil, err
		}
		shortOps, shortScale = ops, sc
		shortActs = st.cur
	} else {
		shortScale = inScale
		shortActs = inActs
	}

	// Body branch, pinned to the shortcut's scale so the integer add is
	// scale-consistent.
	st.cur = cloneTensors(inActs)
	st.curScale = inScale
	bodyOps, _, err := st.quantizeSeq(r.Body, shortScale)
	if err != nil {
		return nil, err
	}
	bodyActs := st.cur

	// Advance calibration through the float residual join, calibrating
	// the post-add requantization scale from the float sums.
	joined := make([]*Tensor, len(bodyActs))
	joinMax := 0.0
	for i := range bodyActs {
		o := rectify(r.sum(bodyActs[i], shortActs[i]))
		if v := o.AbsMax(); v > joinMax {
			joinMax = v
		}
		joined[i] = o
	}
	if joinMax == 0 {
		joinMax = 1
	}
	joinScale := joinMax / float64(st.aMax)
	st.cur = joined
	st.curScale = joinScale
	return &QResidual{
		Body: bodyOps, Shortcut: shortOps, ActBits: st.cfg.ABits,
		// The integer sum sits at shortScale; requantize to joinScale.
		Multiplier: shortScale / joinScale,
	}, nil
}

func cloneTensors(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	copy(out, ts)
	return out
}

// RetrainHead performs quantization-aware retraining of the final
// classifier: the head is re-fit by logistic regression on the quantized
// trunk's integer features (so it sees exactly the distribution it will
// receive under encryption), then requantized in place. This is the
// "QAT-lite" step that stands in for the paper's quantization-aware
// training (see DESIGN.md); without it an untrained random trunk cannot
// survive low-bit quantization.
func (q *QNetwork) RetrainHead(ds *Dataset, epochs int, lr float64, seed uint64) error {
	lastBlk, ok := q.Blocks[len(q.Blocks)-1].(QSeq)
	if !ok || len(lastBlk) == 0 {
		return fmt.Errorf("qnn: RetrainHead needs a trailing QSeq")
	}
	head, ok := lastBlk[len(lastBlk)-1].(*QConv)
	if !ok || !head.IsDense {
		return fmt.Errorf("qnn: RetrainHead needs a trailing dense layer")
	}
	in := head.Shape.Cin
	out := head.Shape.Cout

	// The trunk is the network minus its head: its outputs are exactly
	// the integer features the head receives.
	trunk := *q
	trunk.Blocks = append(q.Blocks[:len(q.Blocks)-1:len(q.Blocks)-1], lastBlk[:len(lastBlk)-1])
	ints := make([]*IntTensor, len(ds.Samples))
	par.ForEach(len(ds.Samples), func(_, i int) {
		ints[i] = trunk.ForwardInt(trunk.QuantizeInput(ds.Samples[i].X))
	})
	feats := make([][]float64, len(ints))
	for i, f := range ints {
		if f.Len() != in {
			return fmt.Errorf("qnn: trunk features of sample %d have %d values, head expects %d", i, f.Len(), in)
		}
		feats[i] = make([]float64, in)
		for j, v := range f.Data {
			feats[i][j] = float64(v)
		}
	}
	w := make([]float64, out*in)
	bias := make([]float64, out)
	fitSoftmax(ds, feats, w, bias, epochs, lr, 0.5, 1e-4, rand.New(rand.NewPCG(seed, 0x4ead)))

	// Requantize the head in place, choosing the weight scale from the
	// folded range (the folded weights act on the raw integer features,
	// so the input scale drops out of the bias fold).
	wMax := int64(1)<<(q.WBits-1) - 1
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	wScale := maxAbs / float64(wMax)
	for o := 0; o < out; o++ {
		for j := 0; j < in; j++ {
			head.Weights[o][j][0][0] = min(max(int64(math.Round(w[o*in+j]/wScale)), -wMax), wMax)
		}
		head.Bias[o] = int64(math.Round(bias[o] / wScale))
	}
	// Accumulator bound for the LUT/modulus checks.
	bound := int64(0)
	for _, f := range ints[:min(32, len(ints))] {
		for _, v := range head.Accumulate(f).Data {
			bound = max(bound, v, -v)
		}
	}
	if bound == 0 {
		bound = 1
	}
	head.MaxAcc = bound + bound/3 + 8
	// The remap must spread the logits over the full activation range —
	// mapping them near ±1 would collapse the argmax under integer
	// rounding.
	lim := float64(int64(1)<<(q.ABits-1) - 1)
	head.WScale = wScale
	head.InScale = 1.0 / float64(int64(1)<<(q.ABits-1))
	head.Multiplier = lim / float64(bound)
	head.OutScale = wScale / head.Multiplier
	return nil
}
