package core

import (
	"errors"
	"fmt"

	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// A Schedule is the engine's program for one network at one parameter
// set and batch size: the steps EvaluateEncryptedBatch runs, in order,
// with every decision the run takes — which LUT rounds pack which
// windows, the table each applies, how pools scale, what the batch
// shares — and the operations each step issues. It is built without
// keys or a plan, so it builds at any Params; compiler.Compile prices it.
type Schedule struct {
	Model string
	Batch int
	Steps []Step
}

// StepKind says what a step does once its rounds have run.
type StepKind int

// Step kinds. A residual block is a fork (its input settled and held),
// the body's convs, a branch when the shortcut projects (the body
// settled and held, the input back), the shortcut's convs, and a join
// (the last branch settled and added to what is held).
const (
	StepConv     StepKind = iota // Step ① per image, then Steps ②–③ unless Last
	StepFork                     // hold the settled values
	StepBranch                   // swap the settled values with the held
	StepJoin                     // add the held values to the settled
	StepAvgPool                  // sum each K×K window of the values, settled scaled
	StepMaxPool                  // lay each window's K² values out as its tree's candidates
	StepMaxLevel                 // K candidates a window become ⌈K/2⌉: b + ReLU(a − b) a pair
)

// A Step is one step of a Schedule.
type Step struct {
	Kind StepKind
	Op   qnn.QOp // nil for a residual block's fork, branch and join

	// Rounds run first, image after image unless Shared (one barrier
	// over the batch, where fewerRounds says it pays). A conv's pack its
	// input windows into coefficients (none before the first layer: the
	// client's encryptions); every other step's apply the pending table
	// to its values, up to N a round, and extract them.
	Rounds []Round
	Shared bool

	Conv *qnn.QConv     // StepConv
	Plan *coeffenc.Plan // StepConv
	Last bool           // StepConv: the last op, which stops at its accumulators

	K       int   // pools: the kernel; StepMaxLevel: candidates per window
	C, H, W int   // pools: the input's geometry
	Scale   int64 // pools: the domain scale (poolScale); 0 elsewhere

	// Stats are the operations the step issues for the whole batch but
	// for those inside the LUTs, which are each round's compiled table's
	// (fbs.Evaluator.CMults, SMults, HAdds).
	Stats OpStats
}

// A Round is one pack of up to N slots, the table applied to them (Fn
// nil: packed only), and its windows, each moved to coefficients by its
// own S2C.
type Round struct {
	Table   Table
	Windows []Window
}

// A Window is one image's share of a round.
type Window struct {
	Image int
	// Batch is the conv input batch it carries; in a round over values,
	// the chunk: values [Batch·N, Batch·N + Len).
	Batch       int
	Offset, Len int  // the slots it spans
	Valid       int  // slots holding a value; the rest are structural zeros
	Masked      bool // cut out of its round by a 0/1 slot mask before S2C
}

// A Table is a function a LUT round applies on a span (fbs.NewRangeLUT).
type Table struct {
	Of   StepKind // the kind of step whose function it is
	Span qnn.Interval
	Fn   func(int64) int64
	// Bound is the accumulator bound the paper sizes the table by: the
	// layer's calibrated MaxAcc, not the proven span.
	Bound int64
}

var errEmptyNetwork = errors.New("core: empty network")
var errNoFinal = errors.New("core: network did not end in a linear layer")

// NewSchedule builds the schedule of q at p for a batch of batch images.
func NewSchedule(q *qnn.QNetwork, p Params, batch int) (*Schedule, error) {
	if p.Sigma <= 0 {
		p.Sigma = ring.DefaultSigma
	}
	ks, err := lwe.NewSwitchPlan(p.LogN, p.LWEDim, p.QMid(), p.KSBase)
	if err != nil {
		return nil, fmt.Errorf("core: keyswitch base: %w", err)
	}
	s, err := newSchedule(q, p.T, 1<<p.LogN, emsMargin(p, ks.Digits), batch)
	return &s, err
}

// builder walks a network once, tracking the values between its steps:
// their geometry, the table still pending on them (Fn nil: settled), and
// the proven interval of what that table writes.
type builder struct {
	s            Schedule
	t            uint64
	n, aBits     int
	margin, aMax int64
	c, h, w      int
	whole, iv    qnn.Interval
	pending      Table
}

func newSchedule(q *qnn.QNetwork, t uint64, n int, margin int64, batch int) (Schedule, error) {
	if _, err := firstConv(q); err != nil {
		return Schedule{}, err
	}
	// A step per op and up to three more a block after the first, a QSeq:
	// a residual block's fork, branch and join, or a small tree's levels.
	steps := 3 * (len(q.Blocks) - 1)
	for _, blk := range q.Blocks {
		steps += len(blk.Ops())
	}
	b := builder{s: Schedule{Model: q.Name, Batch: batch, Steps: make([]Step, 0, steps)}, t: t, n: n, margin: margin,
		whole: domain(t, qnn.Interval{Lo: -int64(t), Hi: int64(t)}, 0), c: q.InC, h: q.InH, w: q.InW}
	b.aBits, b.aMax = activationLimit(q)
	b.iv = qnn.Interval{Lo: -b.aMax, Hi: b.aMax} // EncryptInput refuses any value outside ±aMax
	for bi, blk := range q.Blocks {
		var err error
		switch blk := blk.(type) {
		case qnn.QSeq:
			for oi := 0; oi < len(blk) && err == nil; oi++ {
				switch o := blk[oi].(type) {
				case *qnn.QConv:
					err = b.conv(o, true, bi == len(q.Blocks)-1 && oi == len(blk)-1)
				case *qnn.QAvgPool:
					b.avgPool(o)
				case *qnn.QMaxPool:
					b.maxPool(o)
				default:
					err = fmt.Errorf("core: unsupported op %T", o)
				}
			}
		case *qnn.QResidual:
			err = b.residual(blk)
		default:
			err = fmt.Errorf("core: unsupported block %T", blk)
		}
		if err != nil {
			return Schedule{}, err
		}
	}
	if steps := b.s.Steps; !steps[len(steps)-1].Last {
		return Schedule{}, errNoFinal
	}
	return b.s, nil
}

func firstConv(q *qnn.QNetwork) (*qnn.QConv, error) {
	if len(q.Blocks) == 0 {
		return nil, errEmptyNetwork
	}
	seq, ok := q.Blocks[0].(qnn.QSeq)
	if !ok || len(seq) == 0 {
		return nil, fmt.Errorf("core: network must start with a QSeq")
	}
	c, ok := seq[0].(*qnn.QConv)
	if !ok {
		return nil, fmt.Errorf("core: network must start with a linear layer")
	}
	return c, nil
}

// activationLimit returns the network's activation bits (8 when unset)
// and its largest activation, 2^(bits−1) − 1: the bound of its input
// domain, which sizes the pooling domains too.
func activationLimit(q *qnn.QNetwork) (int, int64) {
	aBits := q.ABits
	if aBits < 2 {
		aBits = 8
	}
	return aBits, int64(1)<<(aBits-1) - 1
}

// domain returns the span (fbs.Span) of iv widened by e on each side: the
// inputs a table reading values of iv, each carrying at most e of noise,
// is evaluated on.
func domain(t uint64, iv qnn.Interval, e int64) qnn.Interval {
	lo, hi := fbs.Span(t, iv.Lo-e, iv.Hi+e)
	return qnn.Interval{Lo: lo, Hi: hi}
}

// poolScale picks the largest power-of-two domain scale such that
// maxVal·scale stays below t/2 with slack for accumulated tree noise.
// Pools sum and compare in the scaled domain so that the extraction
// noise e_ms, which lands at fixed absolute magnitude, is crushed by the
// divide folded into the consumer's table — the same remap-compression
// argument as Section 3.3.
func poolScale(t uint64, maxVal int64) int64 {
	limit, s := int64(t/2)-int64(t/16), int64(1)
	for maxVal*s*2 <= limit {
		s *= 2
	}
	return s
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

// conv adds a linear layer. After the first, its inputs are packed in
// rounds that apply the pending table, shared where shareable (a
// residual block's convs pack image by image) and fewer. It leaves its
// remap pending on the span of its proven accumulator interval widened
// by the margin E: the lowest-degree table exact for every accumulator
// plus its e_ms.
func (b *builder) conv(q *qnn.QConv, shareable, last bool) error {
	s, batch := q.Shape, b.s.Batch
	if !(s.Cin == b.c && s.H == b.h && s.W == b.w) && !(s.H == 1 && s.W == 1 && s.Cin == b.c*b.h*b.w) {
		return fmt.Errorf("core: layer expects %dx%dx%d input but got %dx%dx%d", s.Cin, s.H, s.W, b.c, b.h, b.w)
	}
	plan, err := coeffenc.NewPlan(s, b.n, coeffenc.AthenaOrder)
	if err != nil {
		return err
	}
	if per := plan.InputLen(); per > b.n {
		return fmt.Errorf("core: an input batch of %d coefficients exceeds %d slots", per, b.n)
	}
	st := Step{Kind: StepConv, Op: q, Conv: q, Plan: plan, Last: last}
	if len(b.s.Steps) > 0 {
		st.Shared = shareable && fewerRounds(batch, plan.InBatches, b.n/plan.InputLen())
		st.Rounds = b.windows(plan, st.Shared)
		st.Stats = roundStats(st.Rounds, false)
	}
	pm, ha := plan.Counts()
	st.Stats.PMult += pm * batch
	st.Stats.HAdd += ha * batch
	if !last {
		st.Stats.KeySwitches += plan.OutBatches * batch
		st.Stats.Extractions += s.Outputs() * batch
		span := domain(b.t, q.AccInterval(b.iv), b.margin)
		b.pending = Table{Of: StepConv, Span: span, Fn: q.Remap, Bound: q.MaxAcc}
		b.iv = qnn.Image(q.Remap, span)
	}
	b.c, b.h, b.w = s.Cout, s.OutH(), s.OutW()
	b.s.Steps = append(b.s.Steps, st)
	return nil
}

// windows lays a conv's input batches into LUT rounds. An input batch is
// a window of per = CB·EH·EW slots, so G = ⌊N/per⌋ of them fill a round,
// whichever image or input batch each belongs to: window w of an image
// — of the batch, when shared — sits in round w/G at slot offset
// (w%G)·per. A window is masked unless it is alone in its round under a
// table that keeps zeros: there is no neighbour to cut away, and its
// structural zeros pack to exact zeros, which an identity leaves as they
// are and an exact LUT with f(0) = 0 maps to 0.
func (b *builder) windows(plan *coeffenc.Plan, shared bool) []Round {
	s, sub, per, batch := plan.Shape, plan.SubFactor(), plan.InputLen(), b.s.Batch
	g, keepsZero := b.n/per, b.pending.Fn == nil || b.pending.Fn(0) == 0
	// A window's values: its channels times the encoded rows and columns
	// that are not padding.
	inside := func(e, size int) (v int) {
		for i := 0; i < e; i++ {
			if x := i*sub - s.Pad; x >= 0 && x < size {
				v++
			}
		}
		return v
	}
	plane := inside(plan.EH, s.H) * inside(plan.EW, s.W)
	groups, count := batch, plan.InBatches // each image lays its own windows
	if shared {
		groups, count = 1, batch*plan.InBatches
	}
	rounds := make([]Round, 0, groups*((count+g-1)/g))
	all := make([]Window, 0, batch*plan.InBatches)
	for grp := 0; grp < groups; grp++ {
		for lo := 0; lo < count; lo += g {
			hi, start := min(lo+g, count), len(all)
			for w := lo; w < hi; w++ {
				ib := w % plan.InBatches
				all = append(all, Window{Image: (grp*count + w) / plan.InBatches, Batch: ib, Offset: (w - lo) * per, Len: per,
					Valid: min(plan.CB, s.Cin-ib*plan.CB) * plane, Masked: !keepsZero || hi-lo > 1})
			}
			rounds = append(rounds, Round{Table: b.pending, Windows: all[start:len(all):len(all)]})
		}
	}
	return rounds
}

// valueRounds lays each of images' values values into rounds of up to n,
// in order: value chunk c of an image is its round c.
func valueRounds(images, values, n int, t Table) []Round {
	per := (values + n - 1) / n
	rounds, all := make([]Round, images*per), make([]Window, images*per)
	for i := range rounds {
		l := min(n, values-i%per*n)
		all[i] = Window{Image: i / per, Batch: i % per, Len: l, Valid: l}
		rounds[i] = Round{Table: t, Windows: all[i : i+1 : i+1]}
	}
	return rounds
}

// roundStats counts what rounds issue: a pack each, a LUT call each that
// applies a table, an S2C per window, a plaintext product per masked
// window and per window shifted down from a non-zero offset; rounds over
// values also extract every value after one ring switch a round.
func roundStats(rounds []Round, extract bool) (st OpStats) {
	for _, r := range rounds {
		st.Packs++
		lut := r.Table.Fn != nil
		if lut {
			st.FBSCalls++
		}
		if extract {
			st.KeySwitches++
		}
		for _, w := range r.Windows {
			if lut {
				st.FBSInputs += w.Valid
			}
			if extract {
				st.Extractions += w.Len
			}
			if w.Masked {
				st.PMult++
			}
			if w.Offset > 0 {
				st.PMult++
			}
			st.S2CCalls++
		}
	}
	return st
}

// settle adds a step whose rounds apply the pending table, if any, and
// leaves the values settled. A pool's (scale > 0) apply it composed with
// the pool's domain scale, on all of Z_t.
func (b *builder) settle(kind StepKind, op qnn.QOp, scale int64) *Step {
	t := b.pending
	if scale > 0 {
		fn, of, bound := func(x int64) int64 { return x }, kind, b.aMax
		if t.Fn != nil {
			fn, of, bound = t.Fn, t.Of, t.Bound
		}
		t = Table{Of: of, Span: b.whole, Fn: func(x int64) int64 { return fn(x) * scale }, Bound: bound}
	}
	st := Step{Kind: kind, Op: op, Scale: scale}
	if t.Fn != nil {
		st.Rounds = valueRounds(b.s.Batch, b.c*b.h*b.w, b.n, t)
		st.Stats = roundStats(st.Rounds, true)
	}
	b.pending = Table{}
	b.s.Steps = append(b.s.Steps, st)
	return &b.s.Steps[len(b.s.Steps)-1]
}

// pool settles the values in a pool's scaled domain, shrinks their
// geometry to its output and leaves the divide by d·scale pending (the
// mean or the maximum of a window lies between its least and greatest
// value, so the interval holds).
func (b *builder) pool(kind StepKind, op qnn.QOp, k int, maxVal, d, bound int64) *Step {
	st := b.settle(kind, op, poolScale(b.t, maxVal))
	st.K, st.C, st.H, st.W = k, b.c, b.h, b.w
	b.h, b.w = b.h/k, b.w/k
	div := d * st.Scale
	b.pending = Table{Of: kind, Span: b.whole, Fn: func(x int64) int64 { return qnn.RoundDiv(x, div) }, Bound: bound}
	return st
}

// avgPool adds the pool's sums, each window's starting from its first
// value.
func (b *builder) avgPool(p *qnn.QAvgPool) {
	kk := int64(p.K * p.K)
	st := b.pool(StepAvgPool, p, p.K, b.aMax*kk, kk, kk<<(b.aBits-1))
	st.Stats.LWEAdds = b.s.Batch * b.c * b.h * b.w * int(kk-1)
}

// maxPool adds the PEGASUS-style max tree: max(a,b) = b + ReLU(a−b).
// Each level pairs candidates (2j, 2j+1) of every window and carries an
// odd last one, so m candidates become ⌈m/2⌉ and a K×K window takes
// ⌈log₂ K²⌉ levels; a level's ReLUs over all windows are one batch of
// rounds, and each pair costs two LWE additions.
func (b *builder) maxPool(p *qnn.QMaxPool) {
	b.pool(StepMaxPool, p, p.K, b.aMax, 1, int64(b.t/2)-1)
	windows := b.c * b.h * b.w
	relu := Table{Of: StepMaxPool, Span: b.whole, Fn: func(x int64) int64 { return max(x, 0) }, Bound: 1 << (b.aBits + 1)}
	for m := p.K * p.K; m > 1; m = (m + 1) / 2 {
		lv := Step{Kind: StepMaxLevel, Op: p, K: m, Rounds: valueRounds(b.s.Batch, windows*(m/2), b.n, relu)}
		lv.Stats = roundStats(lv.Rounds, true)
		lv.Stats.LWEAdds = 2 * b.s.Batch * windows * (m / 2)
		b.s.Steps = append(b.s.Steps, lv)
	}
}

// residual adds a residual block and leaves its post-add ReLU-clamp
// pending. The sum of two extracted values carries two e_ms into the
// join table, which stays full: its image bounds the block's output.
func (b *builder) residual(r *qnn.QResidual) error {
	if len(b.s.Steps) == 0 {
		return fmt.Errorf("core: residual block cannot be the first block")
	}
	b.settle(StepFork, nil, 0)
	in := *b
	branch := func(ops qnn.QSeq, name string) error {
		for _, op := range ops {
			c, ok := op.(*qnn.QConv)
			if !ok {
				return fmt.Errorf("core: residual %s supports linear layers only, got %T", name, op)
			}
			if err := b.conv(c, false, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := branch(r.Body, "body"); err != nil {
		return err
	}
	body, short := *b, in
	if len(r.Shortcut) > 0 {
		b.settle(StepBranch, nil, 0)
		b.c, b.h, b.w, b.iv = in.c, in.h, in.w, in.iv
		if err := branch(r.Shortcut, "shortcut"); err != nil {
			return err
		}
		short = *b
	}
	if short.c != body.c || short.h != body.h || short.w != body.w {
		return fmt.Errorf("core: residual branch shapes differ")
	}
	b.settle(StepJoin, nil, 0).Stats.LWEAdds = b.s.Batch * b.c * b.h * b.w
	sum := domain(b.t, body.iv.Add(short.iv), 2*b.margin)
	b.pending = Table{Of: StepJoin, Span: b.whole, Fn: r.JoinRemap, Bound: 1 << (r.ActBits + 1)}
	b.iv = qnn.Image(r.JoinRemap, sum)
	return nil
}
