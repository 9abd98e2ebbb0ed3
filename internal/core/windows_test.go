package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/qnn"
)

// windowCase is one generated call of convInputs: a layer shape, the
// geometry of the value sets feeding it (its own, or a feature map it
// flattens), a batch size, and whether a LUT is pending.
type windowCase struct {
	shape      coeffenc.ConvShape
	srcC, srcH int // feeding value sets are srcC × srcH × srcH
	batch      int
	lut        bool
}

func (c windowCase) String() string {
	return fmt.Sprintf("%+v from %dx%dx%d, B=%d, lut=%v", c.shape, c.srcC, c.srcH, c.srcH, c.batch, c.lut)
}

// genWindowCase draws a conv (Cin 1–6, H = W 2–8, K ∈ {1, 3}, pad 0/1,
// stride 1/2) or, one time in four, a dense layer flattening such a map.
func genWindowCase(rng *rand.Rand) windowCase {
	c := windowCase{srcC: 1 + rng.IntN(6), srcH: 2 + rng.IntN(7), batch: []int{1, 2, 5}[rng.IntN(3)], lut: rng.IntN(3) > 0}
	if rng.IntN(4) == 0 {
		c.shape = coeffenc.FCShape(c.srcC*c.srcH*c.srcH, 1+rng.IntN(4))
		return c
	}
	c.shape = coeffenc.ConvShape{H: c.srcH, W: c.srcH, Cin: c.srcC, Cout: 1 + rng.IntN(3),
		K: []int{1, 3}[rng.IntN(2)], Stride: 1 + rng.IntN(2), Pad: rng.IntN(2)}
	return c
}

// TestConvInputWindows is the property test of the window packing: for
// generated layer shapes at N = 64 and N = 128 and batches of 1, 2 and 5
// value sets, every conv input convInputs prepares must decrypt,
// coefficient for coefficient over all N of them, to plan.EncodeInput of
// the plaintext activations — so a window lands at [0, per), a
// neighbour's window never aliases into it, and everything above per is
// zero. Value sets are full, as every layer leaves them; structural
// zeros come from padding, channels past the last, and the slots of a
// ragged last round, and the LUT has LUT(0) ≠ 0, so one that the mask
// let through would show. Fixed cases in front make sure the sweep
// covers a window that fills the round (G = 1, where the operations must
// be exactly the per-input-batch path's), windows that fill N exactly,
// input batches that do not divide into rounds, and the identity path.
func TestConvInputWindows(t *testing.T) {
	lutFn := func(x int64) int64 { return 3 - x/2 } // LUT(0) = 3
	fixed := map[int][]windowCase{
		64: {
			// EH = EW = 8: one channel is a window of 64 = N, G = 1.
			{shape: coeffenc.ConvShape{H: 6, W: 6, Cin: 3, Cout: 1, K: 3, Stride: 1, Pad: 1}, srcC: 3, srcH: 6, batch: 2, lut: true},
			{shape: coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 1, K: 3, Stride: 1, Pad: 1}, srcC: 2, srcH: 6, batch: 1, lut: false},
		},
		128: {
			// CB = 32, two input batches: 2 images × 2 windows × 32 = N.
			{shape: coeffenc.FCShape(4*4*4, 4), srcC: 4, srcH: 4, batch: 2, lut: true},
			// 5 images × 3 windows, G = 4: four rounds, the last one short.
			{shape: coeffenc.FCShape(2*6*6, 4), srcC: 2, srcH: 6, batch: 5, lut: true},
			// The identity path with neighbours to cut away.
			{shape: coeffenc.FCShape(2*6*6, 4), srcC: 2, srcH: 6, batch: 2, lut: false},
		},
	}
	var sawG1, sawFull, sawRagged, sawIdentityShared bool
	ran := 0
	for _, logN := range []int{6, 7} {
		p := TestParams()
		p.LogN = logN
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		n := e.Ctx.N
		lut, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, lutFn))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(logN), 0x16))
		cases := fixed[n]
		for len(cases) < len(fixed[n])+24 {
			cases = append(cases, genWindowCase(rng))
		}
		for _, c := range cases {
			plan, err := coeffenc.NewPlan(c.shape, n, coeffenc.AthenaOrder)
			if err != nil || plan.InputLen() > n {
				continue // the layer does not fit this ring
			}
			ran++
			per, g := plan.InputLen(), n/plan.InputLen()
			windows := c.batch * plan.InBatches
			rounds := (windows + g - 1) / g
			sawG1 = sawG1 || g == 1
			sawFull = sawFull || windows*per == n
			sawRagged = sawRagged || plan.InBatches%g != 0 && g > 1
			sawIdentityShared = sawIdentityShared || !c.lut && windows > 1 && g > 1

			sets, acts := windowSets(e, c, lut, lutFn, rng)

			e.Stats = OpStats{}
			inputs, err := e.w0.convInputs(plan, sets)
			if err != nil {
				t.Fatalf("N=%d %v: %v", n, c, err)
			}
			e.flushStats()
			st := e.Stats

			checkConvInputs(t, e, plan, c, inputs, acts)

			// One pack and one LUT call per round, one S2C per window; a mask
			// per window unless it is an identity window alone in its round,
			// a shift per window not at offset 0 — so at G = 1 exactly the
			// operations of one pack per input batch.
			masks, shifts := 0, 0
			for w := 0; w < windows; w++ {
				r := w / g
				if c.lut || min((r+1)*g, windows)-r*g > 1 {
					masks++
				}
				if w%g > 0 {
					shifts++
				}
			}
			want := OpStats{Packs: rounds, S2CCalls: windows, PMult: masks + shifts}
			if c.lut {
				want.FBSCalls, want.CMult, want.SMult, want.HAdd = rounds, rounds*lut.CMults, rounds*lut.SMults, rounds*lut.HAdds
				want.FBSInputs = c.batch * validInputs(plan)
			}
			if st != want {
				t.Fatalf("N=%d %v (per=%d, G=%d): ops %+v, want %+v", n, c, per, g, st, want)
			}
			if g == 1 && (st.Packs != windows || shifts != 0) {
				t.Fatalf("N=%d %v: G = 1 must pack once per input batch and never shift: %+v", n, c, st)
			}
		}
	}
	t.Logf("%d cases ran", ran)
	if !sawG1 || !sawFull || !sawRagged || !sawIdentityShared {
		t.Fatalf("sweep missed a class: G=1 %v, windows·per=N %v, InBatches∤G %v, shared identity rounds %v",
			sawG1, sawFull, sawRagged, sawIdentityShared)
	}
}

// TestValidCoeffsDense: a layer's values land in a dense slice at
// (c, y, x) row-major, so the output entries of all its output batches
// must be a permutation of [0, Outputs()) in that order — every
// coordinate extracted exactly once, none out of range. It holds for the
// shapes of core's tests and of the benchmark nets at their ring sizes
// (stride 1 and 2, pad 0 and 1, dense layers) and for the window sweep's
// generated shapes.
func TestValidCoeffsDense(t *testing.T) {
	cases := map[int][]coeffenc.ConvShape{
		128: {
			{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1},
			{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1},
			{H: 4, W: 4, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1},
			{H: 6, W: 6, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1},
			{H: 6, W: 6, Cin: 2, Cout: 3, K: 3, Stride: 1, Pad: 0},
			{H: 8, W: 8, Cin: 2, Cout: 3, K: 1, Stride: 2, Pad: 0},
			coeffenc.FCShape(2*6*6, 4),
			coeffenc.FCShape(2*4*4, 4),
			coeffenc.FCShape(2*3*3, 4),
			coeffenc.FCShape(2*2*2, 4),
			coeffenc.FCShape(36, 2),
		},
		512: {
			{H: 14, W: 14, Cin: 1, Cout: 4, K: 3, Stride: 2, Pad: 1},
			coeffenc.FCShape(4*7*7, 10),
		},
	}
	for _, n := range []int{64, 128} {
		rng := rand.New(rand.NewPCG(uint64(n), 0x18))
		for i := 0; i < 48; i++ {
			cases[n] = append(cases[n], genWindowCase(rng).shape)
		}
	}
	for n, shapes := range cases {
		for _, s := range shapes {
			plan, err := coeffenc.NewPlan(s, n, coeffenc.AthenaOrder)
			if err != nil {
				continue // the layer does not fit this ring
			}
			seen := make([]bool, s.Outputs())
			for ob := 0; ob < plan.OutBatches; ob++ {
				for _, en := range plan.ValidCoeffs(ob) {
					if en.Cout < 0 || en.Cout >= s.Cout || en.Y < 0 || en.Y >= s.OutH() || en.X < 0 || en.X >= s.OutW() {
						t.Fatalf("N=%d %+v: output batch %d has entry %+v out of range", n, s, ob, en)
					}
					i := (en.Cout*s.OutH()+en.Y)*s.OutW() + en.X
					if seen[i] {
						t.Fatalf("N=%d %+v: output %d extracted twice", n, s, i)
					}
					seen[i] = true
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("N=%d %+v: output %d never extracted", n, s, i)
				}
			}
		}
	}
}

// windowSets draws c.batch full value sets of c's source geometry —
// trivial LWE encryptions (zero mask, the value as body: what softmax
// feeds the packer too) — with lut pending, whose plaintext shadow is fn, when c.lut is set, and the
// activations the layer should see.
func windowSets(e *Engine, c windowCase, lut *fbs.Evaluator, fn func(int64) int64, rng *rand.Rand) ([]*valSet, [][][][]int64) {
	sets := make([]*valSet, c.batch)
	acts := make([][][][]int64, c.batch)
	for b := range sets {
		vs := &valSet{C: c.srcC, H: c.srcH, W: c.srcH, vals: make([]lwe.Ciphertext, 0, c.srcC*c.srcH*c.srcH)}
		if c.lut {
			vs.pending, vs.fn = lut, fn
		}
		act := qnn.NewIntTensor(c.shape.Cin, c.shape.H, c.shape.W)
		for ch := 0; ch < c.srcC; ch++ {
			for y := 0; y < c.srcH; y++ {
				for x := 0; x < c.srcH; x++ {
					v := int64(rng.IntN(17)) - 8
					ct := e.zeroLWE()
					ct.B = e.Ctx.TMod.ReduceInt64(v)
					vs.vals = append(vs.vals, ct)
					if c.lut {
						v = fn(v)
					}
					// Row-major (c, y, x) is also the flatten order.
					act.Data[(ch*c.srcH+y)*c.srcH+x] = v
				}
			}
		}
		sets[b], acts[b] = vs, act.To3D()
	}
	return sets, acts
}

// checkConvInputs asserts that convInputs returned an input per set and
// input batch, each at the post level and decrypting, coefficient for
// coefficient over all N of them, to plan.EncodeInput of the set's
// activations.
func checkConvInputs(t *testing.T, e *Engine, plan *coeffenc.Plan, c windowCase, inputs [][]*bfv.Ciphertext, acts [][][][]int64) {
	t.Helper()
	n, per, g := e.Ctx.N, plan.InputLen(), e.Ctx.N/plan.InputLen()
	if len(inputs) != c.batch {
		t.Fatalf("N=%d %v: inputs for %d sets", n, c, len(inputs))
	}
	for b, ins := range inputs {
		if len(ins) != plan.InBatches {
			t.Fatalf("N=%d %v: set %d has %d inputs, want %d", n, c, b, len(ins), plan.InBatches)
		}
		for ib, ct := range ins {
			if ct.Level() != e.ctxP.Level() {
				t.Fatalf("N=%d %v: input (%d, %d) at level %d, want the post level", n, c, b, ib, ct.Level())
			}
			got := e.dec.Decrypt(ct).Coeffs
			for i, want := range plan.EncodeInput(acts[b], ib) {
				if v := e.Ctx.TMod.Centered(got[i]); v != want {
					t.Fatalf("N=%d %v (per=%d, G=%d): set %d input batch %d coefficient %d is %d, want %d",
						n, c, per, g, b, ib, i, v, want)
				}
			}
		}
	}
}

// TestLoneWindowMask: a window alone in its round is cut out by its mask
// only when its LUT moves 0. Its structural zeros — the padding ring —
// are the exact zero LWE, and the slots past
// the window (N = 128, per = 64) are left at 0 by the pack, so a LUT with
// f(0) = 0 keeps every one of them at 0: the input decrypts to
// plan.EncodeInput over all N coefficients, which S2C maps one to one
// from the N slots, with no mask product. Under f(0) = 3 the same window
// is masked, one plaintext product, and decrypts alike.
func TestLoneWindowMask(t *testing.T) {
	c := windowCase{shape: coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1}, srcC: 1, srcH: 6, batch: 1, lut: true}
	luts := []struct {
		name  string
		fn    func(int64) int64
		masks int
	}{
		{"f(0)=0", func(x int64) int64 { return max(x, 0) / 2 }, 0},
		{"f(0)=3", func(x int64) int64 { return 3 - x/2 }, 1},
	}
	for _, logN := range []int{6, 7} {
		p := TestParams()
		p.LogN = logN
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := coeffenc.NewPlan(c.shape, e.Ctx.N, coeffenc.AthenaOrder)
		if err != nil {
			t.Fatal(err)
		}
		if plan.InBatches != 1 || plan.InputLen() != 64 {
			t.Fatalf("N=%d: %d input batches of %d slots, want one of 64", e.Ctx.N, plan.InBatches, plan.InputLen())
		}
		for _, l := range luts {
			lut, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, l.fn))
			if err != nil {
				t.Fatal(err)
			}
			sets, acts := windowSets(e, c, lut, l.fn, rand.New(rand.NewPCG(uint64(logN), 0x17)))
			e.Stats = OpStats{}
			inputs, err := e.w0.convInputs(plan, sets)
			if err != nil {
				t.Fatalf("N=%d %s: %v", e.Ctx.N, l.name, err)
			}
			e.flushStats()
			checkConvInputs(t, e, plan, c, inputs, acts)
			if e.Stats.PMult != l.masks || e.Stats.FBSCalls != 1 {
				t.Fatalf("N=%d %s: %d plaintext products in %d LUT calls, want %d in 1", e.Ctx.N, l.name, e.Stats.PMult, e.Stats.FBSCalls, l.masks)
			}
		}
	}
}

// validInputs counts the values of one image a layer actually reads:
// those at coordinates some input batch encodes (a strided 1×1 layer
// subsamples, so it skips the rest).
func validInputs(plan *coeffenc.Plan) int {
	s, sub := plan.Shape, plan.SubFactor()
	n := 0
	for c := 0; c < s.Cin; c++ {
		for eh := 0; eh < plan.EH; eh++ {
			for ew := 0; ew < plan.EW; ew++ {
				h, w := eh*sub-s.Pad, ew*sub-s.Pad
				if h < 0 || h >= s.H || w < 0 || w >= s.W {
					continue
				}
				n++
			}
		}
	}
	return n
}

// benchTinyNet has the shapes of the benchmark's single_t257 network
// (6×6 conv → conv → dense).
func benchTinyNet() *qnn.QNetwork {
	return &qnn.QNetwork{
		Name: "fill-tiny", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 401),
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 402),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 403),
		}},
	}
}

// TestSlotFill pins the slot fill of the two single-image benchmark
// shapes, FBSInputs ÷ (FBSCalls·N) read from Engine.Stats: the tiny net
// bootstraps 72 of 128 slots twice (two windows of 64, then three of 32;
// one call per input batch made that 5 calls at 14.4 of 128 on average),
// and DigitNet14's dense layer 196 of 512 in one call (its four windows
// of 51 slots took 4 calls at 49 of 512). Its conv's 196 values are
// extracted from 2 result ciphertexts, one ring switch each.
func TestSlotFill(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Infer(benchTinyNet(), randInput(1, 6, 6, 7, 404)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats; st.FBSCalls != 2 || st.FBSInputs != 2*72 || st.Packs != 2 || st.S2CCalls != 5 {
		t.Fatalf("tiny net: %d LUT inputs in %d calls (%d packs, %d S2C), want 72 of %d twice and 5 S2C",
			st.FBSInputs, st.FBSCalls, st.Packs, st.S2CCalls, e.Ctx.N)
	}

	if testing.Short() {
		t.Skip("the DigitNet14 shape needs an N = 512, t = 12289 engine; run without -short")
	}
	// The parameters of examples/mnistcnn and of single_t12289, and
	// DigitNet14's shapes (14×14 → conv 3×3 stride 2 → 4×7×7 → dense 10)
	// with untrained weights: the counts depend on shapes alone.
	e, err := NewEngine(Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289,
		LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := &qnn.QNetwork{
		Name: "fill-digit", InC: 1, InH: 14, InW: 14, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 14, W: 14, Cin: 1, Cout: 4, K: 3, Stride: 2, Pad: 1}, qnn.ActReLU, 1.0/16, 405),
			tinyConv(coeffenc.FCShape(4*7*7, 10), qnn.ActNone, 1.0/8, 406),
		}},
	}
	x := randInput(1, 14, 14, 7, 407)
	got, err := e.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	compareLogits(t, got, net.ForwardInt(x).Data, 1)
	if st := e.Stats; st.FBSCalls != 1 || st.FBSInputs != 196 || st.Packs != 1 || st.S2CCalls != 4 || st.Extractions != 196 || st.KeySwitches != 2 {
		t.Fatalf("DigitNet14 shape: %d LUT inputs in %d calls (%d packs, %d S2C, %d values from %d keyswitches), want 196 of %d in one, 4 S2C and 196 values from 2",
			st.FBSInputs, st.FBSCalls, st.Packs, st.S2CCalls, st.Extractions, st.KeySwitches, e.Ctx.N)
	}
}
