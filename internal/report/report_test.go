package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"athena/internal/ckksref"
	"athena/internal/noise"
	"athena/internal/qnn"
)

func mustContain(t *testing.T, s string, subs ...string) {
	t.Helper()
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			t.Fatalf("output missing %q:\n%s", sub, s)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1()
	mustContain(t, s, "Athena (ours)", "32768", "720", "CKKS")
	if strings.Contains(s, "error") {
		t.Fatal("render error")
	}
}

func TestFig1Renders(t *testing.T) {
	s := Fig1(11)
	mustContain(t, s, "relu", "sigmoid", "taylor", "chebyshev", "Δ=25")
}

func TestTable2Renders(t *testing.T) {
	s := Table2()
	mustContain(t, s, "cheetah", "athena", "50.00%", "3.12%")
}

func TestTable3Renders(t *testing.T) {
	mustContain(t, Table3(), "O(√t)", "Athena", "Bootstrap")
}

func TestTable4Renders(t *testing.T) {
	s := Table4()
	mustContain(t, s, "558", "706", "FBS", "budget ok: true")
}

func TestTable6Renders(t *testing.T) {
	s := Table6()
	mustContain(t, s, "CraterLake", "SHARP", "Athena-w7a7", "Athena-w6a7", "ResNet-56")
}

func TestTable7And11Render(t *testing.T) {
	mustContain(t, Table7(), "energy-delay product")
	mustContain(t, Fig11(), "energy-delay-area")
}

func TestTable8And9Render(t *testing.T) {
	mustContain(t, Table8(), "Athena", "180")
	mustContain(t, Table9(), "116.4", "148.1", "FRU")
}

func TestFig8Renders(t *testing.T) {
	s := Fig8()
	mustContain(t, s, "CraterLake+AthenaFW", "SHARP+AthenaFW", "slower")
}

func TestFig9And10Render(t *testing.T) {
	mustContain(t, Fig9(), "activation", "pooling", "softmax")
	mustContain(t, Fig10(), "HBM", "FRU", "total J")
}

func TestFig12PerfRenders(t *testing.T) {
	s := Fig12Perf()
	mustContain(t, s, "w4a4", "w8a8", "ResNet-56", "w8a8/w7a7")
}

func TestFig13Renders(t *testing.T) {
	s := Fig13()
	mustContain(t, s, "NTT", "FRU", "2048", "256")
}

func TestAblationsRender(t *testing.T) {
	s := Ablations()
	mustContain(t, s, "region pipeline", "LUT sizing", "encoding order", "subsampling")
	if strings.Contains(s, "error") {
		t.Fatalf("ablation error:\n%s", s)
	}
}

func TestSecurityRenders(t *testing.T) {
	s := Security()
	mustContain(t, s, "RLWE", "LWE", ">=128 bits: true")
	if strings.Contains(s, "FAIL") {
		t.Fatalf("security check failed:\n%s", s)
	}
}

func TestSimulateModelErrors(t *testing.T) {
	if _, err := SimulateModel("NoSuchNet", 7, 7); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestAccuracyStudiesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("model training; run without -short")
	}
	cfg := DefaultAccuracyConfig()
	cfg.TestSamples = 40
	cfg.TrainDigits = 400
	cfg.Epochs = 2
	mustContain(t, Fig4(cfg), "maxAcc", "error ratio")
	mustContain(t, Fig12Accuracy(cfg), "w4a4", "w7a7")
	var g goldenText
	accuracyGolden(t, &g, cfg)
	cfg.SkipResNet56 = true
	cfg.TrainCIFAR = 60
	rows, err := Table5Rows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		g.add("table5 "+r.Model, r.PlainG, r.PlainQ7, r.Cipher7, r.PlainQ6, r.Cipher6)
	}
	mustContain(t, renderTable5(rows, cfg.TestSamples), "MNIST", "LeNet", "ResNet-20", "plain-G")
	// Table 5's cached ResNet-20 puts the approximated residual join on
	// the model curve.
	resnet, resTrain, _, err := TrainedModel("ResNet-20", cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.add("modelbit ResNet-20 order 7 delta 35", ckksref.ModelBitAccuracy(resnet, resTrain, 2, 7, 35))
	g.check(t, "accuracy.golden")
}

// accuracyGolden records, at full float64 precision, the values behind
// Fig. 4, Fig. 12's accuracy half and Fig. 1's model curve at cfg: the
// plaintext quantized reference every figure is computed on.
func accuracyGolden(t *testing.T, g *goldenText, cfg AccuracyConfig) {
	t.Helper()
	net, train, test, err := TrainedModel("MNIST", cfg)
	if err != nil {
		t.Fatal(err)
	}
	qc := qnn.DefaultQuantConfig()
	qc.AccCap = 29000
	qnet, err := qnn.Quantize(net, train, qc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range noise.Fig4Stats(qnet, train, 16, noise.EmsSigma(1<<15, 3.2, 720, 16), cfg.Seed) {
		g.add("fig4 "+s.Name, float64(s.MaxAcc), s.MaxAccBits, s.ErrorRatio)
	}
	// The loop of Fig12Accuracy, keeping the values it renders.
	for _, m := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {6, 7}, {7, 7}, {8, 8}} {
		qc := qnn.DefaultQuantConfig()
		qc.WBits, qc.ABits = m[0], m[1]
		qc.AccCap = 29000
		qnet, err := qnn.Quantize(net, train, qc)
		if err != nil {
			t.Fatal(err)
		}
		if err := qnet.RetrainHead(train, 20, 0.02, cfg.Seed+3); err != nil {
			t.Fatal(err)
		}
		g.add(fmt.Sprintf("fig12 w%da%d", m[0], m[1]), qnet.AccuracyInt(test), qnet.AccuracyNoisy(test, cfg.EmsSigma, cfg.Seed+3))
	}
	for _, order := range []int{3, 7, 15, 27} {
		for _, d := range []int{25, 30, 35, 40} {
			g.add(fmt.Sprintf("modelbit MNIST order %d delta %d", order, d), ckksref.ModelBitAccuracy(net, train, 16, order, d))
		}
	}
}

// goldenText is a list of named values, each printed with the fewest
// digits that read back as the same float64.
type goldenText struct{ strings.Builder }

func (g *goldenText) add(name string, vs ...float64) {
	g.WriteString(name)
	for _, v := range vs {
		g.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
	}
	g.WriteString("\n")
}

// check compares the recorded values with testdata/name line by line.
func (g *goldenText) check(t *testing.T, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(g.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var a, b string
		if i < len(got) {
			a = got[i]
		}
		if i < len(wantLines) {
			b = wantLines[i]
		}
		if a != b {
			t.Fatalf("%s line %d:\n got  %q\n want %q", name, i+1, a, b)
		}
	}
}

func TestThroughputRenders(t *testing.T) {
	s := Throughput()
	mustContain(t, s, "MNIST", "images/s", "16")
	if strings.Contains(s, "throughput: ") {
		t.Fatalf("render error:\n%s", s)
	}
}
