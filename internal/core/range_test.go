package core

import (
	"crypto/sha256"
	"errors"
	"math"
	"testing"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/fbs"
	"athena/internal/qnn"
)

// emsOf extracts every coefficient of acc, a post-level ciphertext, as
// an LWE value and returns each value's e_ms: its LWE phase minus the
// coefficient acc decrypts to, centered mod t.
func emsOf(t *testing.T, e *Engine, acc *bfv.Ciphertext, errs []int64) []int64 {
	t.Helper()
	idx := make([]int, e.Ctx.N)
	for i := range idx {
		idx[i] = i
	}
	want := e.dec.Decrypt(acc)
	vals, err := e.w0.extract(acc, idx)
	if err != nil {
		t.Fatal(err)
	}
	tm := e.tMod
	for i, v := range vals {
		errs = append(errs, tm.Centered(tm.Sub(e.lweSK.Decrypt(v), want.Coeffs[i])))
	}
	return errs
}

// checkEmsWithinMargin measures e_ms over at least 10⁵ extracted values:
// the logits of net's final layer, which read a LUT round's output, re-
// randomized by adding fresh encryptions of zero so that every
// extraction meets a new mask. Every |e_ms| must be within the plan's E.
func checkEmsWithinMargin(t *testing.T, e *Engine, net *qnn.QNetwork, x *qnn.IntTensor) {
	t.Helper()
	in, err := e.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.EvaluateEncrypted(net, in)
	if err != nil {
		t.Fatal(err)
	}
	var errs []int64
	var rs bfv.RescaleScratch
	for i := 0; len(errs) < 100_000; i++ {
		acc := out.final.accs[i%len(out.final.accs)].Clone()
		zero, err := e.Ctx.ModDownWith(e.enc.Encrypt(e.Ctx.NewPlaintext()), e.ctxP.Level(), &rs)
		if err != nil {
			t.Fatal(err)
		}
		e.evP.AddInPlace(acc, zero)
		errs = emsOf(t, e, acc, errs)
	}
	var most int64
	var sq float64
	for _, v := range errs {
		most = max(most, v, -v)
		sq += float64(v * v)
	}
	t.Logf("%d values: max |e_ms| %d, σ %.2f; E = %d", len(errs), most, math.Sqrt(sq/float64(len(errs))), e.margin)
	if most > e.margin {
		t.Fatalf("an extracted value carries e_ms %d beyond E = %d", most, e.margin)
	}
}

// TestEmsWithinMargin: the e_ms an extracted value carries, measured at
// TestParams and at the single_t12289 shape, stays within the margin E
// every range-sized table is widened by.
func TestEmsWithinMargin(t *testing.T) {
	checkEmsWithinMargin(t, testEngine(t), benchTinyNet(), randInput(1, 6, 6, 7, 500))
	if testing.Short() {
		t.Skip("the single_t12289 shape needs an N = 512, t = 12289 engine; run without -short")
	}
	e, err := NewEngine(Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289,
		LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := &qnn.QNetwork{
		Name: "ems-digit", InC: 1, InH: 14, InW: 14, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 14, W: 14, Cin: 1, Cout: 4, K: 3, Stride: 2, Pad: 1}, qnn.ActReLU, 1.0/16, 501),
			tinyConv(coeffenc.FCShape(4*7*7, 10), qnn.ActNone, 1.0/8, 502),
		}},
	}
	checkEmsWithinMargin(t, e, net, randInput(1, 14, 14, 7, 503))
}

// TestSecondInferenceCompilesNothing: every table of an inference —
// conv remaps, pooling, the residual join — is compiled through the
// plan, once: a second ResNet-style inference adds no table, and the
// join's is among those the first added.
func TestSecondInferenceCompilesNothing(t *testing.T) {
	e := testEngine(t)
	net := resNet()
	tables := func() int {
		e.lutMu.Lock()
		defer e.lutMu.Unlock()
		return len(e.luts)
	}
	if _, err := e.Infer(net, randInput(1, 6, 6, 7, 510)); err != nil {
		t.Fatal(err)
	}
	join := net.Blocks[1].(*qnn.QResidual).JoinRemap
	key := sha256.Sum256(fbs.AppendTable(nil, e.P.T, e.whole.Lo, e.whole.Hi, join))
	e.lutMu.Lock()
	_, ok := e.luts[key]
	e.lutMu.Unlock()
	if !ok {
		t.Fatal("the residual join's table is not in the plan")
	}
	before := tables()
	if _, err := e.Infer(net, randInput(1, 6, 6, 7, 511)); err != nil {
		t.Fatal(err)
	}
	if after := tables(); after != before {
		t.Fatalf("the second inference compiled %d tables", after-before)
	}
}

// TestEncryptInputRejectsOutOfDomain: a value outside ±(2^(ABits−1) − 1)
// is refused with an *InputRangeError naming it; the domain's ends are
// accepted.
func TestEncryptInputRejectsOutOfDomain(t *testing.T) {
	e := testEngine(t)
	net := benchTinyNet() // ABits 4: the domain is ±7
	x := randInput(1, 6, 6, 7, 520)
	x.Data[0], x.Data[1] = 7, -7
	if _, err := e.EncryptInput(net, x); err != nil {
		t.Fatalf("the domain's ends: %v", err)
	}
	for _, v := range []int64{8, -8, 1 << 40} {
		x.Data[5] = v
		_, err := e.EncryptInput(net, x)
		var re *InputRangeError
		if !errors.As(err, &re) || re.Index != 5 || re.Value != v || re.Limit != 7 {
			t.Fatalf("input %d: EncryptInput returned %v", v, err)
		}
	}
}
