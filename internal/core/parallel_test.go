package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"athena/internal/coeffenc"
	"athena/internal/qnn"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fingerprint files")

// gomaxprocsMatrix is the worker-count sweep the CI matrix also runs;
// 1 pins the serial path, 2 the minimal fan-out, 4 more lanes than a
// two-item loop (a ladder level, a round of two windows) has items, 8 an
// oversubscribed fan-out (more workers than most operator loops have
// items).
var gomaxprocsMatrix = []int{1, 2, 4, 8}

func detNet() *qnn.QNetwork {
	return &qnn.QNetwork{
		Name: "par-det", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 301),
			tinyConv(coeffenc.FCShape(2*6*6, 4), qnn.ActNone, 1.0/8, 302),
		}},
	}
}

// TestEvaluateBitIdenticalAcrossGOMAXPROCS is the engine-level
// determinism contract of the operator fan-out: a fresh same-seed engine
// must produce byte-identical encrypted logits at every worker count,
// and those bytes must match the checked-in fingerprint (so every leg of
// the CI GOMAXPROCS matrix asserts equality against the same value, not
// just self-consistency). Regenerate with -update after a change that
// legitimately alters ciphertext bytes.
func TestEvaluateBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("GOMAXPROCS sweep builds fresh engines; run without -short")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	net := detNet()
	x := randInput(1, 6, 6, 7, 303)
	want := net.ForwardInt(x).Data

	var blob []byte
	for _, procs := range gomaxprocsMatrix {
		// Set the worker count before key generation so the sweep also
		// covers the (parallel) engine construction.
		runtime.GOMAXPROCS(procs)
		e, err := NewEngine(TestParams())
		if err != nil {
			t.Fatal(err)
		}
		in, err := e.EncryptInput(net, x)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.EvaluateEncrypted(net, in)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WriteEncryptedLogits(out, &buf); err != nil {
			t.Fatal(err)
		}
		logits, err := e.DecryptLogits(out)
		if err != nil {
			t.Fatal(err)
		}
		compareLogits(t, logits, want, 2)
		if blob == nil {
			blob = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), blob) {
			t.Fatalf("GOMAXPROCS=%d: encrypted logits differ from the serial result", procs)
		}
	}

	sum := sha256.Sum256(blob)
	got := hex.EncodeToString(sum[:])
	golden := filepath.Join("testdata", "evaluate_fingerprint.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSum, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fingerprint (regenerate with -update): %v", err)
	}
	if got != strings.TrimSpace(string(wantSum)) {
		t.Fatalf("encrypted-logits fingerprint %s != golden %s (run with -update if the change is intended)",
			got, strings.TrimSpace(string(wantSum)))
	}
}

// TestInferBatchBitIdenticalAcrossGOMAXPROCS checks the batched path:
// fresh same-seed engines at 1, 2, and 8 workers must produce exactly
// the same logits for every image (not merely within noise tolerance —
// the fixed partitioning and ordered combines make the whole pipeline
// an exact function of the inputs).
func TestInferBatchBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("GOMAXPROCS sweep builds fresh engines; run without -short")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	net := detNet()
	xs := []*qnn.IntTensor{
		randInput(1, 6, 6, 7, 304),
		randInput(1, 6, 6, 7, 305),
	}

	var want [][]int64
	for _, procs := range gomaxprocsMatrix {
		runtime.GOMAXPROCS(procs)
		e, err := NewEngine(TestParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.InferBatch(net, xs)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("GOMAXPROCS=%d: image %d logits %v != serial %v", procs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInferBatchSingleImage pins the batch-of-1 edge case through the
// one-shot API: it must agree with the plaintext reference.
func TestInferBatchSingleImage(t *testing.T) {
	e := testEngine(t)
	net := detNet()
	x := randInput(1, 6, 6, 7, 306)
	want := net.ForwardInt(x).Data
	got, err := e.InferBatch(net, []*qnn.IntTensor{x})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("batch of 1 returned %d results", len(got))
	}
	compareLogits(t, got[0], want, 3)
}

// maskNet is a padded convolution (mixed-validity convInputs masks)
// followed by a max-pool (batchLUT chunks, scaled-domain
// materialization) and a dense layer.
func maskNet() *qnn.QNetwork {
	return &qnn.QNetwork{
		Name: "par-mask", InC: 1, InH: 4, InW: 4, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []qnn.QBlock{qnn.QSeq{
			tinyConv(coeffenc.ConvShape{H: 4, W: 4, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, qnn.ActReLU, 1.0/16, 320),
			&qnn.QMaxPool{K: 2},
			tinyConv(coeffenc.FCShape(2*2*2, 4), qnn.ActNone, 1.0/8, 321),
		}},
	}
}

// TestBatchOfOneIsEvaluateEncrypted: the two evaluation entry points are
// one driver, so a one-element batch must return byte-identical
// encrypted logits and leave identical Engine.Stats — on a plain conv
// chain, on structural zeros with pooling, and across a residual join.
func TestBatchOfOneIsEvaluateEncrypted(t *testing.T) {
	e := testEngine(t)
	for _, net := range []*qnn.QNetwork{detNet(), maskNet(), resNet()} {
		in, err := e.EncryptInput(net, randInput(net.InC, net.InH, net.InW, 7, 330))
		if err != nil {
			t.Fatal(err)
		}
		var blobs [2]bytes.Buffer
		var stats [2]OpStats
		for i, eval := range []func() (*EncryptedLogits, error){
			func() (*EncryptedLogits, error) { return e.EvaluateEncrypted(net, in) },
			func() (*EncryptedLogits, error) {
				outs, err := e.EvaluateEncryptedBatch(net, []*EncryptedInput{in})
				if err != nil {
					return nil, err
				}
				return outs[0], nil
			},
		} {
			e.Stats = OpStats{}
			out, err := eval()
			if err != nil {
				t.Fatalf("%s: %v", net.Name, err)
			}
			stats[i] = e.Stats
			if err := e.WriteEncryptedLogits(out, &blobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(blobs[0].Bytes(), blobs[1].Bytes()) {
			t.Errorf("%s: batch of one differs from EvaluateEncrypted", net.Name)
		}
		if stats[0] != stats[1] || stats[0].FBSCalls == 0 {
			t.Errorf("%s: stats %+v (single) vs %+v (batch of one)", net.Name, stats[0], stats[1])
		}
	}
}

// TestSharingSaves is the share/fuse rule of the block driver as a
// table. Since conv inputs fill LUT rounds by windows (an input batch is
// a window of per slots, G = ⌊N/per⌋ to a round), an image already shares
// rounds among its own input batches; the barrier is taken only when
// laying the whole batch's windows into common rounds needs fewer still:
// ⌈B·InBatches/G⌉ < B·⌈InBatches/G⌉.
func TestSharingSaves(t *testing.T) {
	for _, c := range []struct {
		name                 string
		images, inBatches, g int
		want                 bool
	}{
		{"one image never shares", 1, 1, 4, false},
		{"one image, even when its layer spans input batches", 1, 3, 4, false},
		{"DemoNet, 16 images x 1 window of 32 at N = 128: 4 rounds for 16", 16, 1, 4, true},
		{"TestInferBatchSharesFBS: 3 images x 3 windows, G = 4: 3 rounds either way", 3, 3, 4, false},
		{"the same layer with a fourth image: 3 rounds for 4", 4, 3, 4, true},
		{"a window fills the round: nothing to share", 5, 2, 1, false},
		{"every image fills whole rounds already", 3, 4, 2, false},
		{"DigitNet14's dense layer, 4 windows of 49 at N = 512, G = 10: 2 rounds for 3", 3, 4, 10, true},
	} {
		if got := fewerRounds(c.images, c.inBatches, c.g); got != c.want {
			t.Errorf("%s: fewerRounds(%d, %d, %d) = %v", c.name, c.images, c.inBatches, c.g, got)
		}
	}
}

// TestInferBatchOverflowsSlotCapacity drives the batch past the FBS slot
// capacity: 5 images × 3 windows of 32 slots (72 pending activations
// each) over N=128 slots, forcing the shared barrier to split into 4
// rounds that fan out across worker lanes (images land mid-round, so the
// round boundaries cross image boundaries).
func TestInferBatchOverflowsSlotCapacity(t *testing.T) {
	e := testEngine(t)
	net := detNet()
	const batch = 5
	perImage := 2 * 6 * 6 // Cout × H × W pending activations per image
	if batch*perImage <= 2*e.Ctx.N {
		t.Fatalf("test vector too small: %d values for %d slots", batch*perImage, e.Ctx.N)
	}
	xs := make([]*qnn.IntTensor, batch)
	wants := make([][]int64, batch)
	for i := range xs {
		xs[i] = randInput(1, 6, 6, 7, uint64(310+i))
		wants[i] = net.ForwardInt(xs[i]).Data
	}
	got, err := e.InferBatch(net, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		compareLogits(t, got[i], wants[i], 3)
	}
}

// TestInferBatchMixedValidityMasks exercises structural zeros in the
// parallel pipeline (maskNet) across a batch. Run under -race in CI,
// this is the canary for mask staging buffers shared between worker
// lanes.
func TestInferBatchMixedValidityMasks(t *testing.T) {
	e := testEngine(t)
	net := maskNet()
	xs := []*qnn.IntTensor{
		randInput(1, 4, 4, 7, 322),
		randInput(1, 4, 4, 7, 323),
	}
	got, err := e.InferBatch(net, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := net.ForwardInt(xs[i]).Data
		compareLogits(t, got[i], want, 3)
	}
}
