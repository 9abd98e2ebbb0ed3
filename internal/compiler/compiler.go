// Package compiler prices the engine's program with the paper's
// per-step formulas. It lowers core's schedule of a network — the steps
// the engine runs, built without keys — step by step into the operation
// trace the accelerator simulator prices: per-step counts of PMult/
// CMult/SMult/HAdd/HRot, sample extractions, keyswitches, packing and
// S2C calls, and the LUT sizes that determine FBS cost.
//
// What a step issues is the engine's: its LUT rounds, ring switches,
// extractions and LWE additions. What each costs is the paper's: a pack
// of n diagonals, flat Alg. 2 on the table LUTSize sizes by the layer's
// calibrated MaxAcc and one S2C a round, the three-level S2C of Table 3
// where the engine runs a generic BSGS transform (DESIGN.md discusses
// the equivalence), and the softmax epilogue.
package compiler

import (
	"fmt"
	"math"
	"math/bits"

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

// Options tweaks the lowering for ablation and throughput studies.
type Options struct {
	// UniformLUT disables per-layer LUT sizing: every FBS uses the full
	// t-sized table, as a framework without the paper's "matching small
	// LUT for layers" flexibility would.
	UniformLUT bool
	// BatchSize is the batch of the schedule lowered (0/1: one image):
	// Engine.EvaluateEncryptedBatch's B images, with its shared rounds.
	BatchSize int
}

// lowering appends the priced steps of a schedule.
type lowering struct {
	p          core.Params
	uniformLUT bool
	steps      []Step
}

func (lo *lowering) emit(layer string, k Kind, c Category, o OpCounts, lutSize int) {
	lo.steps = append(lo.steps, Step{Layer: layer, Kind: k, Cat: c, Counts: o, LUTSize: lutSize})
}

// packCounts prices one packing of n LWE values (Step ④): n plaintext
// diagonals and additions, and the giant-step rotations of a BSGS split
// of n whose baby steps are the largest power of two at most √n.
func (lo *lowering) packCounts() OpCounts {
	n := int64(lo.p.LWEDim)
	return OpCounts{PMult: n, HAdd: n, HRot: n>>((bits.Len64(uint64(n))-1)/2) - 1}
}

// s2cCounts prices one S2C as Table 3's three levels of ∛N.
func (lo *lowering) s2cCounts() OpCounts {
	c := int64(math.Cbrt(float64(int(1)<<lo.p.LogN)) + 0.5)
	return OpCounts{PMult: 3 * c, HRot: 3 * c}
}

// fbsCounts prices one FBS as flat Alg. 2 on a table of lutSize entries:
// bs − 1 baby powers, gs − 2 giant powers and gs − 1 block products,
// and a scalar product and addition per entry.
func fbsCounts(lutSize int) OpCounts {
	bs := int64(math.Ceil(math.Sqrt(float64(lutSize))))
	gs := (int64(lutSize) + bs - 1) / bs
	return OpCounts{CMult: (bs - 1) + (gs - 2) + (gs - 1), SMult: int64(lutSize), HAdd: int64(lutSize)}
}

// lutSize is the table a round is priced at: LUTSize of the bound the
// paper sizes it by, or the full table under UniformLUT.
func (lo *lowering) lutSize(bound int64) int {
	if lo.uniformLUT {
		bound = int64(lo.p.T/2) - 1
	}
	return LUTSize(bound, lo.p.T)
}

// category is the Fig. 9 bucket of what a table computes: a pool's
// scale, tree or divide, or an activation.
func category(of core.StepKind) Category {
	switch of {
	case core.StepAvgPool, core.StepMaxPool, core.StepMaxLevel:
		return CatPooling
	}
	return CatActivation
}

// step lowers one schedule step. A round that applies a table is priced
// as the paper's Steps ④–⑤: a pack, the FBS and one S2C. The engine's
// per-window S2C, masks and shifts, which land each window at
// coefficient 0 for its conv, are not: on the paper's dataflow one S2C
// of the round feeds the layer. Neither is a round that applies no table
// (a residual branch repacking settled values): the settling round's S2C
// output is that input. Then Step ① of a conv, the step's extractions
// (Steps ②–③) and its LWE additions, as the step issues them.
func (lo *lowering) step(s *core.Step, batch int64) {
	name, st := "residual", s.Stats
	if s.Op != nil {
		name = s.Op.OpName()
	}
	for _, r := range s.Rounds {
		if r.Table.Fn == nil {
			continue
		}
		cat, size := category(r.Table.Of), lo.lutSize(r.Table.Bound)
		lo.emit(name, KPack, cat, lo.packCounts(), 0)
		lo.emit(name, KFBS, cat, fbsCounts(size), size)
		lo.emit(name, KS2C, cat, lo.s2cCounts(), 0)
	}
	if s.Kind == core.StepConv {
		pm, ha := s.Plan.Counts()
		lo.emit(name, KLinear, CatLinear, OpCounts{PMult: int64(pm) * batch, HAdd: int64(ha+s.Plan.OutBatches) * batch}, 0)
	}
	own, add := CatConvert, CatLinear // a layer's results or settled values; the residual join
	if category(s.Kind) == CatPooling {
		own, add = CatPooling, CatPooling
	}
	if st.KeySwitches > 0 {
		lo.emit(name, KSE, own, OpCounts{KeySwitch: int64(st.KeySwitches), SE: int64(st.Extractions)}, 0)
	}
	if st.LWEAdds > 0 {
		lo.emit(name, KLWEAdd, add, OpCounts{LWEAdd: int64(st.LWEAdds)}, 0)
	}
}

// softmax prices the three-step softmax of Section 3.2.3 on the final
// layer's outputs, which the engine leaves to the client: an exp and an
// inverse LUT over packs filled across the batch, and one CMult.
func (lo *lowering) softmax(last *qnn.QConv, batch int64) {
	vals := int64(last.Shape.Outputs()) * batch
	size := lo.lutSize(last.MaxAcc)
	for _, layer := range []string{"softmax-exp", "softmax-inv"} {
		for g := int64(0); g < (vals+int64(1)<<lo.p.LogN-1)>>lo.p.LogN; g++ {
			lo.emit(layer, KPack, CatSoftmax, lo.packCounts(), 0)
			lo.emit(layer, KFBS, CatSoftmax, fbsCounts(size), size)
			lo.emit(layer, KS2C, CatSoftmax, lo.s2cCounts(), 0)
		}
	}
	lo.emit("softmax-div", KFBS, CatSoftmax, OpCounts{CMult: 1}, 2)
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

// Compile prices the schedule of q at parameters p for one image.
func Compile(q *qnn.QNetwork, p core.Params) (*Trace, error) {
	return CompileWithOptions(q, p, Options{})
}

// CompileWithOptions is Compile with ablation switches: it prices every
// step of the schedule, then the softmax epilogue on its last layer.
func CompileWithOptions(q *qnn.QNetwork, p core.Params, opts Options) (*Trace, error) {
	s, err := core.NewSchedule(q, p, max(opts.BatchSize, 1))
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	lo := &lowering{p: p, uniformLUT: opts.UniformLUT}
	for i := range s.Steps {
		lo.step(&s.Steps[i], int64(s.Batch))
	}
	lo.softmax(s.Steps[len(s.Steps)-1].Conv, int64(s.Batch))
	return &Trace{Model: s.Model, Params: p, Steps: lo.steps}, nil
}
