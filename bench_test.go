package athena

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"athena/internal/report"
)

// Every table and figure of the paper's evaluation section has a
// benchmark below that regenerates it. The rendered output is printed
// once per benchmark (captured by `go test -bench . | tee`), and the
// benchmark timing measures the cost of regenerating the artifact.
//
// Paper-vs-measured values are recorded in EXPERIMENTS.md.

var printOnce sync.Map

func emit(b *testing.B, name, out string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(name, true); !done {
		fmt.Printf("\n=== %s ===\n%s\n", name, out)
	}
}

func BenchmarkTable1Solutions(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table1()
	}
	emit(b, "Table 1", s)
}

func BenchmarkFig1DeltaAccuracy(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig1(27)
	}
	emit(b, "Fig. 1", s)
}

func BenchmarkTable2ValidRatio(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table2()
	}
	emit(b, "Table 2", s)
}

func BenchmarkTable3Complexity(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table3()
	}
	emit(b, "Table 3", s)
}

func BenchmarkTable4Noise(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table4()
	}
	emit(b, "Table 4", s)
}

// benchAccuracyConfig sizes the training-based studies so the whole
// benchmark package fits inside go test's default 10-minute timeout on
// one core. ResNet-56 (the slowest model by far) is covered by the
// standalone harness instead: `go run ./cmd/athena-bench -accuracy`.
func benchAccuracyConfig() report.AccuracyConfig {
	cfg := report.DefaultAccuracyConfig()
	cfg.TestSamples = 50
	cfg.TrainDigits = 600
	cfg.TrainCIFAR = 100
	cfg.SkipResNet56 = true
	return cfg
}

func BenchmarkFig4ParameterT(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig4(benchAccuracyConfig())
	}
	emit(b, "Fig. 4", s)
}

func BenchmarkTable5Accuracy(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table5(benchAccuracyConfig())
	}
	emit(b, "Table 5", s)
}

func BenchmarkTable6Speedup(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table6()
	}
	emit(b, "Table 6", s)
}

func BenchmarkTable7EDP(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table7()
	}
	emit(b, "Table 7", s)
}

func BenchmarkTable8Memory(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table8()
	}
	emit(b, "Table 8", s)
}

func BenchmarkTable9AreaPower(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Table9()
	}
	emit(b, "Table 9", s)
}

func BenchmarkFig8CrossAccelerator(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig8()
	}
	emit(b, "Fig. 8", s)
}

func BenchmarkFig9Breakdown(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig9()
	}
	emit(b, "Fig. 9", s)
}

func BenchmarkFig10Energy(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig10()
	}
	emit(b, "Fig. 10", s)
}

func BenchmarkFig11EDAP(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig11()
	}
	emit(b, "Fig. 11", s)
}

func BenchmarkFig12QuantSensitivity(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig12Perf() + report.Fig12Accuracy(benchAccuracyConfig())
	}
	emit(b, "Fig. 12", s)
}

func BenchmarkFig13LaneSensitivity(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig13()
	}
	emit(b, "Fig. 13", s)
}

// BenchmarkEncryptedInference measures one complete five-step encrypted
// inference (conv→conv→dense) at test-scale parameters — the software
// pipeline itself, not the simulator.
func BenchmarkEncryptedInference(b *testing.B) {
	eng, err := NewEngine(TestParams())
	if err != nil {
		b.Fatal(err)
	}
	net, x := benchTinyNet(), benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(net, x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInput is the 6×6 image BenchmarkEncryptedInference classifies.
func benchInput() *IntTensor {
	x := NewIntTensor(1, 6, 6)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}
	return x
}

func benchTinyNet() *QNetwork {
	rng := rand.New(rand.NewPCG(9, 9))
	mk := func(shape ConvShape, act Activation, mult float64) *QConv {
		w := make([][][][]int64, shape.Cout)
		for co := range w {
			w[co] = make([][][]int64, shape.Cin)
			for ci := range w[co] {
				w[co][ci] = make([][]int64, shape.K)
				for i := range w[co][ci] {
					w[co][ci][i] = make([]int64, shape.K)
					for j := range w[co][ci][i] {
						w[co][ci][i][j] = int64(rng.IntN(3)) - 1
					}
				}
			}
		}
		return &QConv{Shape: shape, Weights: w, Bias: make([]int64, shape.Cout),
			Act: act, Multiplier: mult, ActBits: 4, MaxAcc: 120}
	}
	return &QNetwork{
		Name: "bench", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
		Blocks: []QBlock{QSeq{
			mk(ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, ActReLU, 1.0/16),
			mk(ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, ActReLU, 1.0/16),
			mk(FCShape(2*6*6, 4), ActNone, 1.0/8),
		}},
	}
}

func BenchmarkAblations(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Ablations()
	}
	emit(b, "Ablations", s)
}

func BenchmarkSecurityEstimate(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Security()
	}
	emit(b, "Security", s)
}

func BenchmarkThroughputStudy(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Throughput()
	}
	emit(b, "Throughput", s)
}
