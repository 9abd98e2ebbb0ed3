package report

import (
	"fmt"
	"strings"
	"sync"

	"athena/internal/ckksref"
	"athena/internal/noise"
	"athena/internal/qnn"
)

// AccuracyConfig sizes the Table 5 / Fig. 12 accuracy studies. The
// defaults keep single-core runtime reasonable; EXPERIMENTS.md records
// the sizes used for the committed numbers.
type AccuracyConfig struct {
	TrainDigits  int // training samples for MNIST/LeNet
	TrainCIFAR   int // readout-training samples for the ResNets
	TestSamples  int // evaluation samples per model
	Epochs       int
	EmsSigma     float64 // e_ms injected std (accumulator units)
	Seed         uint64
	SkipResNet56 bool // the slowest model; skipped in quick runs
}

// DefaultAccuracyConfig returns a configuration sized for the benchmark
// harness on one core.
func DefaultAccuracyConfig() AccuracyConfig {
	return AccuracyConfig{
		TrainDigits: 900,
		TrainCIFAR:  200,
		TestSamples: 200,
		Epochs:      5,
		EmsSigma:    10,
		Seed:        17,
	}
}

// trainedModel caches one trained float network and its datasets.
type trainedModel struct {
	net   *qnn.Network
	train *qnn.Dataset
	test  *qnn.Dataset
}

var (
	trainedMu    sync.Mutex
	trainedCache = map[string]*trainedModel{}
)

// TrainedModel returns (training + caching) the named benchmark model:
// full SGD for MNIST/LeNet on synthetic digits, frozen-feature readout
// training for the ResNets on synthetic CIFAR (see DESIGN.md for the
// substitution rationale).
func TrainedModel(name string, cfg AccuracyConfig) (*qnn.Network, *qnn.Dataset, *qnn.Dataset, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%d", name, cfg.TrainDigits, cfg.TrainCIFAR, cfg.TestSamples, cfg.Epochs)
	trainedMu.Lock()
	defer trainedMu.Unlock()
	if tm, ok := trainedCache[key]; ok {
		return tm.net, tm.train, tm.test, nil
	}
	net, err := qnn.ModelByName(name, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	tc := qnn.DefaultTrainConfig()
	tc.Epochs = cfg.Epochs
	tc.Seed = cfg.Seed
	var train, test *qnn.Dataset
	switch name {
	case "MNIST", "LeNet":
		train = qnn.SynthDigits(cfg.TrainDigits, cfg.Seed+1)
		test = qnn.SynthDigits(cfg.TestSamples, cfg.Seed+2)
		qnn.Train(net, train, tc)
	default:
		train = qnn.SynthCIFAR(cfg.TrainCIFAR, cfg.Seed+1)
		test = qnn.SynthCIFAR(cfg.TestSamples, cfg.Seed+2)
		tc.Epochs = 10
		tc.LR = 0.1
		//lint:holdok trainedMu serializes the one-time readout training; waiters need the shared model and block on it by design
		qnn.TrainReadout(net, train, tc)
	}
	trainedCache[key] = &trainedModel{net: net, train: train, test: test}
	return net, train, test, nil
}

// Table5Row is one accuracy row.
type Table5Row struct {
	Model            string
	PlainG           float64 // float accuracy
	PlainQ7, Cipher7 float64 // w7a7 plain-quantized / e_ms-injected
	PlainQ6, Cipher6 float64 // w6a7
}

// Table5Rows computes the accuracy study.
func Table5Rows(cfg AccuracyConfig) ([]Table5Row, error) {
	var rows []Table5Row
	for _, m := range qnn.BenchmarkModels {
		if cfg.SkipResNet56 && m == "ResNet-56" {
			continue
		}
		net, train, test, err := TrainedModel(m, cfg)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Model: m, PlainG: qnn.Accuracy(net, test)}
		for _, wb := range []int{7, 6} {
			qc := qnn.DefaultQuantConfig()
			qc.WBits = wb
			qc.AccCap = 29000 // keep every layer inside t/2 at t=65537
			qnet, err := qnn.Quantize(net, train, qc)
			if err != nil {
				return nil, err
			}
			// QAT-lite: recalibrate the classifier head on the quantized
			// trunk's integer features (the paper quantizes QAT-trained
			// models; see DESIGN.md).
			if err := qnet.RetrainHead(train, 30, 0.02, cfg.Seed+3); err != nil {
				return nil, err
			}
			plainQ := qnet.AccuracyInt(test)
			cipher := qnet.AccuracyNoisy(test, cfg.EmsSigma, cfg.Seed+9)
			if wb == 7 {
				row.PlainQ7, row.Cipher7 = plainQ, cipher
			} else {
				row.PlainQ6, row.Cipher6 = plainQ, cipher
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table5 renders the accuracy comparison.
func Table5(cfg AccuracyConfig) string {
	rows, err := Table5Rows(cfg)
	if err != nil {
		return "table 5: " + err.Error()
	}
	return renderTable5(rows, cfg.TestSamples)
}

// renderTable5 prints Table5Rows' rows, evaluated on samples test samples.
func renderTable5(rows []Table5Row, samples int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: accuracy under plaintext and ciphertext inference (synthetic datasets, %d test samples)\n", samples)
	fmt.Fprintf(&b, "%-11s %8s | %8s %8s %7s | %8s %8s %7s\n",
		"model", "plain-G", "plainQ7", "cipher7", "delta", "plainQ6", "cipher6", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %7.2f%% | %7.2f%% %7.2f%% %+6.2f%% | %7.2f%% %7.2f%% %+6.2f%%\n",
			r.Model, r.PlainG*100,
			r.PlainQ7*100, r.Cipher7*100, (r.Cipher7-r.PlainQ7)*100,
			r.PlainQ6*100, r.Cipher6*100, (r.Cipher6-r.PlainQ6)*100)
	}
	fmt.Fprintf(&b, "(paper: cipher-vs-plainQ deltas within +0.01/-0.24%% on real MNIST/CIFAR-10)\n")
	return b.String()
}

// Fig4 renders the parameter-t rationale: per-layer max accumulator bits
// against the t bound, and the e_ms error ratio.
func Fig4(cfg AccuracyConfig) string {
	net, train, _, err := TrainedModel("MNIST", cfg)
	if err != nil {
		return "fig 4: " + err.Error()
	}
	qc := qnn.DefaultQuantConfig()
	qc.AccCap = 29000
	qnet, err := qnn.Quantize(net, train, qc)
	if err != nil {
		return "fig 4: " + err.Error()
	}
	sigma := noise.EmsSigma(1<<15, 3.2, 720, 16)
	stats := noise.Fig4Stats(qnet, train, 16, sigma, cfg.Seed)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: max MAC vs t and e_ms error ratio (MNIST w7a7, e_ms sigma=%.1f)\n", sigma)
	fmt.Fprintf(&b, "%-22s %10s %10s %12s\n", "layer", "maxAcc", "bits", "error ratio")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-22s %10d %10.1f %11.2f%%\n", s.Name, s.MaxAcc, s.MaxAccBits, s.ErrorRatio*100)
	}
	fmt.Fprintf(&b, "t/2 bound: 32768 (15.0 bits); paper: error ratios mostly <6%%, max <11%%\n")
	return b.String()
}

// Fig1Model renders the CNN curve of Fig. 1: output-probability bit
// accuracy of the trained MNIST benchmark with ReLU replaced by Δ-bit
// series expansions.
func Fig1Model(cfg AccuracyConfig) string {
	net, train, _, err := TrainedModel("MNIST", cfg)
	if err != nil {
		return "fig 1 model: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 (model curve): CNN output-probability accuracy (bits) with approximated ReLU\n")
	fmt.Fprintf(&b, "%6s | %6s %6s %6s %6s\n", "order", "Δ=25", "Δ=30", "Δ=35", "Δ=40")
	for _, order := range []int{3, 7, 15, 27} {
		fmt.Fprintf(&b, "%6d |", order)
		for _, d := range []int{25, 30, 35, 40} {
			fmt.Fprintf(&b, " %6.2f", ckksref.ModelBitAccuracy(net, train, 16, order, d))
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "(paper: degraded and unstable accuracy even at Δ=30/35, worse than exact ReLU)\n")
	return b.String()
}

// Fig12Accuracy renders the accuracy half of the quantization sweep on
// the MNIST benchmark (trained quickly; the paper plateau at w6a7+ is
// the reproduced shape).
func Fig12Accuracy(cfg AccuracyConfig) string {
	net, train, test, err := TrainedModel("MNIST", cfg)
	if err != nil {
		return "fig 12: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 (accuracy): quantization precision sweep (MNIST, %d test samples)\n", cfg.TestSamples)
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "mode", "plain-Q", "cipher")
	type pt struct{ w, a int }
	for _, m := range []pt{{4, 4}, {5, 5}, {6, 6}, {6, 7}, {7, 7}, {8, 8}} {
		qc := qnn.DefaultQuantConfig()
		qc.WBits, qc.ABits = m.w, m.a
		qc.AccCap = 29000
		qnet, err := qnn.Quantize(net, train, qc)
		if err != nil {
			return "fig 12: " + err.Error()
		}
		if err := qnet.RetrainHead(train, 20, 0.02, cfg.Seed+3); err != nil {
			return "fig 12: " + err.Error()
		}
		fmt.Fprintf(&b, "w%da%d %11.2f%% %9.2f%%\n",
			m.w, m.a, qnet.AccuracyInt(test)*100, qnet.AccuracyNoisy(test, cfg.EmsSigma, cfg.Seed+3)*100)
	}
	return b.String()
}
