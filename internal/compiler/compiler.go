// Package compiler lowers a quantized network onto the Athena framework
// at a given parameter set, producing the operation trace the
// accelerator simulator prices: per-step counts of PMult/CMult/SMult/
// HAdd/HRot, sample extractions, keyswitches, packing and S2C calls, and
// the per-layer LUT sizes that determine FBS cost.
//
// The trace follows the paper's hardware-side ordering: one ring degree
// switch per ciphertext before sample extraction, as the engine runs it,
// and the three-level S2C of Table 3, where the engine runs a generic
// BSGS transform; DESIGN.md discusses the equivalence.
package compiler

import (
	"fmt"
	"math"

	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/qnn"
)

// Category attributes a step to a Fig. 9 breakdown bucket.
type Category string

// Fig. 9 buckets.
const (
	CatLinear     Category = "linear"
	CatActivation Category = "activation"
	CatPooling    Category = "pooling"
	CatSoftmax    Category = "softmax"
	CatConvert    Category = "convert" // SE + modswitch + degree switch
)

// Kind identifies the primitive step being priced.
type Kind string

// Step kinds.
const (
	KLinear Kind = "linear" // coefficient-encoded conv/FC
	KSE     Kind = "se"     // modswitch + degree switch + sample extract
	KPack   Kind = "pack"   // LWE -> RLWE slots (BSGS)
	KFBS    Kind = "fbs"    // functional bootstrapping
	KS2C    Kind = "s2c"    // slot-to-coefficient
	KLWEAdd Kind = "lweadd" // additions on LWE vectors
)

// OpCounts tallies primitive homomorphic operations.
type OpCounts struct {
	PMult, CMult, SMult, HAdd, HRot int64
	SE                              int64 // sample extractions
	KeySwitch                       int64 // ring keyswitch invocations
	LWEAdd                          int64 // n-vector additions
}

// Add accumulates o2 into o.
func (o *OpCounts) Add(o2 OpCounts) {
	o.PMult += o2.PMult
	o.CMult += o2.CMult
	o.SMult += o2.SMult
	o.HAdd += o2.HAdd
	o.HRot += o2.HRot
	o.SE += o2.SE
	o.KeySwitch += o2.KeySwitch
	o.LWEAdd += o2.LWEAdd
}

// Step is one priced unit of work.
type Step struct {
	Layer   string
	Kind    Kind
	Cat     Category
	Counts  OpCounts
	LUTSize int // FBS steps: the layer's table size (≤ 2^17)
}

// Trace is the lowered program.
type Trace struct {
	Model  string
	Params core.Params
	Steps  []Step
}

// Totals sums all step counts.
func (t *Trace) Totals() OpCounts {
	var o OpCounts
	for _, s := range t.Steps {
		o.Add(s.Counts)
	}
	return o
}

// TotalsByCategory groups counts per Fig. 9 bucket.
func (t *Trace) TotalsByCategory() map[Category]OpCounts {
	out := map[Category]OpCounts{}
	for _, s := range t.Steps {
		o := out[s.Cat]
		o.Add(s.Counts)
		out[s.Cat] = o
	}
	return out
}

type lowering struct {
	p     core.Params
	n     int
	steps []Step

	// uniformLUT forces every FBS to the full t-sized table (ablation:
	// no per-layer LUT shrinking).
	uniformLUT bool
	// batch scales per-image work (≥1).
	batch int64
}

// Options tweaks the lowering for ablation and throughput studies.
type Options struct {
	// UniformLUT disables per-layer LUT sizing: every FBS uses the full
	// t-sized table, as a framework without the paper's "matching small
	// LUT for layers" flexibility would.
	UniformLUT bool
	// BatchSize lowers the network for B-image batched inference: linear
	// layers, conversions, and value counts scale by B while the shared
	// FBS packs fill across the batch (Engine.InferBatch's schedule).
	// 0/1 = single image.
	BatchSize int
}

// linear emits Step ① for one conv/FC (per image in a batch).
func (lo *lowering) linear(q *qnn.QConv, plan *coeffenc.Plan) {
	pm, ha := plan.Counts()
	lo.steps = append(lo.steps, Step{
		Layer: q.OpName(), Kind: KLinear, Cat: CatLinear,
		Counts: OpCounts{
			PMult: int64(pm) * lo.batch,
			HAdd:  int64(ha+plan.OutBatches) * lo.batch,
		},
	})
}

// convert emits Steps ②-③: per result ciphertext one modulus switch and
// one ring-degree switch (keyswitch), then the valid extractions.
func (lo *lowering) convert(layer string, resultCTs int, values int64, cat Category) {
	lo.steps = append(lo.steps, Step{
		Layer: layer, Kind: KSE, Cat: cat,
		Counts: OpCounts{
			KeySwitch: int64(resultCTs) * lo.batch,
			SE:        values * lo.batch,
		},
	})
}

// activation emits Steps ④-⑤ for `values` activations with the given
// LUT size: packing groups of N, FBS per group, S2C per group.
func (lo *lowering) activation(layer string, values int64, lutSize int, cat Category) {
	if lo.uniformLUT {
		lutSize = LUTSize(int64(lo.p.T/2)-1, lo.p.T)
	}
	// Batched inference fills the FBS packs across images.
	values *= lo.batch
	groups := (values + int64(lo.n) - 1) / int64(lo.n)
	nLWE := int64(lo.p.LWEDim)
	bsP := int64(pow2Sqrt(lo.p.LWEDim))
	gsP := nLWE / bsP

	bs := int64(math.Ceil(math.Sqrt(float64(lutSize))))
	gs := (int64(lutSize) + bs - 1) / bs

	cbrtN := int64(math.Cbrt(float64(lo.n)) + 0.5)

	for g := int64(0); g < groups; g++ {
		lo.steps = append(lo.steps,
			Step{Layer: layer, Kind: KPack, Cat: cat, Counts: OpCounts{
				PMult: nLWE,
				HAdd:  nLWE,
				HRot:  gsP - 1,
			}},
			Step{Layer: layer, Kind: KFBS, Cat: cat, LUTSize: lutSize, Counts: OpCounts{
				CMult: (bs - 1) + (gs - 2) + (gs - 1),
				SMult: int64(lutSize),
				HAdd:  int64(lutSize),
			}},
			Step{Layer: layer, Kind: KS2C, Cat: cat, Counts: OpCounts{
				PMult: 3 * cbrtN,
				HRot:  3 * cbrtN,
			}},
		)
	}
}

// residual lowers a QResidual block.
func (lo *lowering) residual(r *qnn.QResidual) error {
	for _, op := range r.Body {
		c, ok := op.(*qnn.QConv)
		if !ok {
			return fmt.Errorf("compiler: residual body op %T", op)
		}
		plan, err := coeffenc.NewPlan(c.Shape, lo.n, coeffenc.AthenaOrder)
		if err != nil {
			return err
		}
		lo.linear(c, plan)
		lo.convert(c.OpName(), plan.OutBatches, int64(c.Shape.Outputs()), CatConvert)
		lo.activation(c.OpName(), int64(c.Shape.Outputs()), LUTSize(c.MaxAcc, lo.p.T), CatActivation)
	}
	var joinVals int64
	if len(r.Body) > 0 {
		if c, ok := r.Body[len(r.Body)-1].(*qnn.QConv); ok {
			joinVals = int64(c.Shape.Outputs())
		}
	}
	for _, op := range r.Shortcut {
		c, ok := op.(*qnn.QConv)
		if !ok {
			return fmt.Errorf("compiler: residual shortcut op %T", op)
		}
		plan, err := coeffenc.NewPlan(c.Shape, lo.n, coeffenc.AthenaOrder)
		if err != nil {
			return err
		}
		lo.linear(c, plan)
		lo.convert(c.OpName(), plan.OutBatches, int64(c.Shape.Outputs()), CatConvert)
		lo.activation(c.OpName(), int64(c.Shape.Outputs()), LUTSize(c.MaxAcc, lo.p.T), CatActivation)
	}
	// Join: LWE adds + post-add ReLU-clamp LUT over the int8 sums.
	lo.steps = append(lo.steps, Step{
		Layer: "residual-add", Kind: KLWEAdd, Cat: CatLinear,
		Counts: OpCounts{LWEAdd: joinVals * lo.batch},
	})
	lo.activation("residual-relu", joinVals, 1<<uint(r.ActBits+2), CatActivation)
	return nil
}

// softmax emits the three-step softmax of Section 3.2.3 on the final
// layer's outputs.
func (lo *lowering) softmax(last *qnn.QConv) {
	vals := int64(last.Shape.Outputs())
	lut := LUTSize(last.MaxAcc, lo.p.T)
	lo.activation("softmax-exp", vals, lut, CatSoftmax)
	lo.activation("softmax-inv", vals, lut, CatSoftmax)
	lo.steps = append(lo.steps, Step{
		Layer: "softmax-div", Kind: KFBS, Cat: CatSoftmax, LUTSize: 2,
		Counts: OpCounts{CMult: 1},
	})
}

// LUTSize returns the FBS table size a layer needs: the power of two
// covering twice its accumulator bound, capped at 2^17 (the paper's
// upper bound on the LUT mapping space) and never below 16. The modulus
// t bounds it in practice; Fig. 12's w8a8 point intentionally exceeds t
// to model the cost of the larger table the paper evaluates.
func LUTSize(maxAcc int64, t uint64) int {
	if maxAcc < 8 {
		maxAcc = 8
	}
	size := 16
	for int64(size) < 2*maxAcc && size < 1<<17 {
		size <<= 1
	}
	return size
}

func pow2Sqrt(n int) int {
	b := 1
	for b*b < n {
		b <<= 1
	}
	if b*b > n {
		b >>= 1
	}
	return b
}

// Compile lowers q at parameters p, tracking tensor geometry through
// the network so pooling layers can be lowered.
func Compile(q *qnn.QNetwork, p core.Params) (*Trace, error) {
	return CompileWithOptions(q, p, Options{})
}

// CompileWithOptions is Compile with ablation switches.
func CompileWithOptions(q *qnn.QNetwork, p core.Params, opts Options) (*Trace, error) {
	batch := int64(opts.BatchSize)
	if batch < 1 {
		batch = 1
	}
	lo := &lowering{p: p, n: 1 << p.LogN, uniformLUT: opts.UniformLUT, batch: batch}
	convs := q.Convs()
	if len(convs) == 0 {
		return nil, fmt.Errorf("compiler: network has no linear layers")
	}
	geomC, geomH, geomW := q.InC, q.InH, q.InW
	var actBits = q.ABits

	emitConv := func(c *qnn.QConv, last bool) error {
		plan, err := coeffenc.NewPlan(c.Shape, lo.n, coeffenc.AthenaOrder)
		if err != nil {
			return err
		}
		lo.linear(c, plan)
		geomC, geomH, geomW = c.Shape.Cout, c.Shape.OutH(), c.Shape.OutW()
		if !last {
			lo.convert(c.OpName(), plan.OutBatches, int64(c.Shape.Outputs()), CatConvert)
			lo.activation(c.OpName(), int64(c.Shape.Outputs()), LUTSize(c.MaxAcc, lo.p.T), CatActivation)
		}
		return nil
	}

	for bi, b := range q.Blocks {
		switch blk := b.(type) {
		case qnn.QSeq:
			for oi, op := range blk {
				last := bi == len(q.Blocks)-1 && oi == len(blk)-1
				switch o := op.(type) {
				case *qnn.QConv:
					if err := emitConv(o, last); err != nil {
						return nil, err
					}
				case *qnn.QAvgPool:
					vals := int64(geomC * (geomH / o.K) * (geomW / o.K))
					lo.steps = append(lo.steps, Step{
						Layer: o.OpName(), Kind: KLWEAdd, Cat: CatPooling,
						Counts: OpCounts{LWEAdd: vals * int64(o.K*o.K-1) * lo.batch},
					})
					lo.activation(o.OpName(), vals, LUTSize(int64(o.K*o.K)<<uint(actBits-1), lo.p.T), CatPooling)
					geomH /= o.K
					geomW /= o.K
				case *qnn.QMaxPool:
					// The pool's inputs come out of the round above in the
					// scaled domain (the pending LUT fused with the scale)
					// and are extracted back to LWE for the tree.
					in := int64(geomC * geomH * geomW)
					lo.convert(o.OpName(), int((in+int64(lo.n)-1)/int64(lo.n)), in, CatPooling)
					// The max tree runs level by level: each level computes
					// a−b for every surviving pair, ReLU(a−b) (one batched
					// FBS round + conversion), then b + ReLU(a−b): two LWE
					// additions per pair.
					vals := int64(geomC * (geomH / o.K) * (geomW / o.K))
					remaining := int64(o.K * o.K)
					for remaining > 1 {
						pairs := vals * (remaining / 2)
						lo.steps = append(lo.steps, Step{
							Layer: o.OpName(), Kind: KLWEAdd, Cat: CatPooling,
							Counts: OpCounts{LWEAdd: 2 * pairs * lo.batch},
						})
						lo.activation(o.OpName(), pairs, 1<<uint(actBits+2), CatPooling)
						groups := (pairs + int64(lo.n) - 1) / int64(lo.n)
						lo.convert(o.OpName(), int(groups), pairs, CatPooling)
						remaining = (remaining + 1) / 2
					}
					// The maxima carry the scale: the next layer's input
					// round divides it out with a full-domain table.
					lo.activation(o.OpName(), vals, LUTSize(int64(lo.p.T/2)-1, lo.p.T), CatPooling)
					geomH /= o.K
					geomW /= o.K
				default:
					return nil, fmt.Errorf("compiler: unsupported op %T", op)
				}
			}
		case *qnn.QResidual:
			if err := lo.residual(blk); err != nil {
				return nil, err
			}
			if len(blk.Body) > 0 {
				if c, ok := blk.Body[len(blk.Body)-1].(*qnn.QConv); ok {
					geomC, geomH, geomW = c.Shape.Cout, c.Shape.OutH(), c.Shape.OutW()
				}
			}
		default:
			return nil, fmt.Errorf("compiler: unsupported block %T", b)
		}
	}
	lo.softmax(convs[len(convs)-1])
	return &Trace{Model: q.Name, Params: p, Steps: lo.steps}, nil
}
