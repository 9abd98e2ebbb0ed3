package athena

import (
	"math/rand/v2"
	"testing"
)

// Public-API smoke tests: everything a downstream user touches through
// the facade must work without reaching into internal packages.

func TestFacadeParamsPresets(t *testing.T) {
	for _, p := range []Params{TestParams(), MediumParams(), FullParams()} {
		if p.LogN < 7 || p.T < 257 || p.LWEDim < 32 {
			t.Fatalf("preset looks wrong: %+v", p)
		}
		if _, err := p.BFVParameters(); err != nil {
			t.Fatal(err)
		}
	}
	if FullParams().LogN != 15 || FullParams().T != 65537 {
		t.Fatal("full params are not the paper's setting")
	}
}

func TestFacadeModelZoo(t *testing.T) {
	for _, name := range BenchmarkModels {
		net, err := ModelByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if net.Name == "" {
			t.Fatal("unnamed model")
		}
	}
	if len(SynthDigits(10, 1).Samples) != 10 {
		t.Fatal("digits dataset wrong size")
	}
	if len(SynthCIFAR(10, 1).Samples) != 10 {
		t.Fatal("cifar dataset wrong size")
	}
}

func TestFacadeTrainQuantizeSimulate(t *testing.T) {
	net := NewDigitNet14(1)
	_ = net
	qn, err := SpecModel("MNIST", 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CompileTrace(qn, FullParams())
	if err != nil {
		t.Fatal(err)
	}
	r := Simulate(tr, AthenaHW())
	if r.TimeMS <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("degenerate simulation: %+v", r)
	}
}

func TestFacadeEncryptedRoundTrip(t *testing.T) {
	eng, err := NewEngine(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	net := benchTinyNet()
	rng := rand.New(rand.NewPCG(5, 5))
	x := NewIntTensor(1, 6, 6)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	got, err := eng.Infer(net, x)
	if err != nil {
		t.Fatal(err)
	}
	want := net.ForwardInt(x).Data
	if len(got) != len(want) {
		t.Fatal("logit count mismatch")
	}
	for i := range got {
		d := got[i] - want[i]
		if d < -2 || d > 2 {
			t.Fatalf("logit %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestFacadeQuantizeFlow(t *testing.T) {
	train := SynthDigits(300, 9)
	net, err := ModelByName("MNIST", 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	Train(net, train, cfg)
	qc := DefaultQuantConfig()
	qc.AccCap = 29000
	qn, err := Quantize(net, train, qc)
	if err != nil {
		t.Fatal(err)
	}
	if acc := qn.AccuracyInt(train); acc < 0.5 {
		t.Fatalf("quantized train accuracy %.2f too low", acc)
	}
}

// TestEncryptedInferenceAllocs caps the allocations of one evaluation and
// decryption of BenchmarkEncryptedInference's conv→conv→FC net at
// TestParams. ModDown, modulus switching and decryption once scaled
// through math/big one coefficient at a time, and one inference made
// 6 659 allocations; on word-sized kernels it made 1 556, and with Step
// ③ fused into one kernel writing one backing array per extraction (no
// per-value masks) 1 124. With every homomorphic step writing into a
// ciphertext its caller owns — S2C, packing and the LUT staged in the
// worker's scratch — it made 288; with Step ③ one ring switch per
// ciphertext and Steps ② and ③ (and every ModDown) staged in the worker,
// it made 226; with masks, kernels and biases encoded and lifted into the
// worker's own plaintext staging, 170, later 167. With each image's values one dense (c, y, x) slice instead of a
// map — 11 allocations for a map of 72 values, and the net builds two —
// it makes 147. The ceiling, that count plus 10 %, keeps big-integer
// scaling, per-value extraction, per-call staging, per-step ciphertexts,
// per-encode plaintexts and per-value maps from coming back.
func TestEncryptedInferenceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an engine and runs encrypted inferences")
	}
	const ceiling = 161
	eng, err := NewEngine(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	net := benchTinyNet()
	in, err := eng.EncryptInput(net, benchInput())
	if err != nil {
		t.Fatal(err)
	}
	infer := func() {
		out, err := eng.EvaluateEncrypted(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.DecryptLogits(out); err != nil {
			t.Fatal(err)
		}
	}
	infer() // compiles the LUTs, which is set-up
	n := testing.AllocsPerRun(5, infer)
	if n > ceiling {
		t.Fatalf("one inference allocates %.0f times, ceiling %d", n, ceiling)
	}
	t.Logf("one inference allocates %.0f times", n)
}
