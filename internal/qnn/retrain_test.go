package qnn

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"athena/internal/coeffenc"
)

func isoQNet() (*QNetwork, *QConv) {
	trunk := &QConv{
		Shape:      coeffenc.ConvShape{H: 4, W: 4, Cin: 1, Cout: 1, K: 1, Stride: 1, Pad: 0},
		Weights:    [][][][]int64{{{{1}}}},
		Bias:       []int64{0},
		Act:        ActReLU,
		Multiplier: 1,
		ActBits:    7,
		MaxAcc:     1000,
	}
	head := &QConv{
		Shape:      coeffenc.FCShape(16, 4),
		Weights:    make([][][][]int64, 4),
		Bias:       make([]int64, 4),
		Act:        ActNone,
		Multiplier: 1,
		ActBits:    7,
		IsDense:    true,
		MaxAcc:     1000,
	}
	for o := range head.Weights {
		head.Weights[o] = make([][][]int64, 16)
		for i := range head.Weights[o] {
			head.Weights[o][i] = [][]int64{{0}}
		}
	}
	qn := &QNetwork{Name: "iso", InC: 1, InH: 4, InW: 4, WBits: 7, ABits: 7, InScale: 1,
		Blocks: []QBlock{QSeq{trunk, head}}}
	return qn, head
}

func quadrantTask(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 2))
	ds := &Dataset{Classes: 4}
	for i := 0; i < n; i++ {
		label := i % 4
		x := NewTensor(1, 4, 4)
		oy, ox := (label/2)*2, (label%2)*2
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				x.Set(0, oy+dy, ox+dx, 40+float64(rng.IntN(20)))
			}
		}
		for j := range x.Data {
			x.Data[j] += float64(rng.IntN(5))
		}
		ds.Samples = append(ds.Samples, Sample{X: x, Label: label})
	}
	return ds
}

// RetrainHead must fit a linearly separable task to near-perfect
// accuracy through an identity trunk.
func TestRetrainHeadIsolated(t *testing.T) {
	qn, head := isoQNet()
	ds := quadrantTask(400, 1)
	if err := qn.RetrainHead(ds, 6, 0.3, 3); err != nil {
		t.Fatal(err)
	}
	after := qn.AccuracyInt(ds)
	if after < 0.95 {
		t.Fatalf("RetrainHead failed a separable task: %.2f", after)
	}
	if head.MaxAcc <= 0 || head.MaxAcc >= 32768 {
		t.Fatalf("head accumulator bound %d implausible", head.MaxAcc)
	}
	if head.Multiplier <= 0 {
		t.Fatalf("head multiplier %v", head.Multiplier)
	}
	var g goldenText
	for o, ws := range head.Weights {
		row := make([]float64, len(ws))
		for j, w := range ws {
			row[j] = float64(w[0][0])
		}
		g.add(fmt.Sprintf("weights %d", o), row...)
	}
	bias := make([]float64, len(head.Bias))
	for o, b := range head.Bias {
		bias[o] = float64(b)
	}
	g.add("bias", bias...)
	g.add("max_acc", float64(head.MaxAcc))
	g.add("multiplier", head.Multiplier)
	g.check(t, "retrain_head.golden")
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

func TestRetrainHeadRejectsBadNetworks(t *testing.T) {
	qn := &QNetwork{Blocks: []QBlock{&QResidual{}}, ABits: 7, WBits: 7}
	if err := qn.RetrainHead(quadrantTask(8, 1), 1, 0.1, 1); err == nil {
		t.Fatal("non-QSeq tail accepted")
	}
}

// The residual join multiplier must requantize sums (no drift into the
// clamp) and the plaintext shadows must agree across the three
// implementations (Apply, noisy path, JoinRemap).
func TestResidualJoinMultiplier(t *testing.T) {
	r := &QResidual{ActBits: 7, Multiplier: 0.5}
	cases := map[int64]int64{-10: 0, 0: 0, 10: 5, 63: 32, 200: 63 /* clamped: 100 > 63 */}
	for in, want := range cases {
		if got := r.JoinRemap(in); got != want {
			t.Errorf("JoinRemap(%d) = %d want %d", in, got, want)
		}
	}
	// Zero/one multiplier = legacy clamp-only behaviour.
	r2 := &QResidual{ActBits: 4}
	if r2.JoinRemap(100) != 7 || r2.JoinRemap(-3) != 0 || r2.JoinRemap(5) != 5 {
		t.Fatal("legacy join behaviour broken")
	}
}

// Sigmoid/GELU fusion: quantized inference with fused non-linearities
// must track the float network.
func TestSigmoidGELUFusion(t *testing.T) {
	for _, act := range []Layer{&Sigmoid{}, &GELU{}} {
		rng := rand.New(rand.NewPCG(5, 6))
		net := &Network{
			Name: "act-test", InC: 1, InH: 6, InW: 6,
			Blocks: []Block{Seq{
				NewConv2D(3, 1, 3, 1, 1, rng),
				act,
				NewDense(3*6*6, 4, rng),
			}},
		}
		ds := quadrant6Task(300, 9)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 6
		Train(net, ds, cfg)
		accF := Accuracy(net, ds)
		qn, err := Quantize(net, ds, DefaultQuantConfig())
		if err != nil {
			t.Fatal(err)
		}
		accQ := qn.AccuracyInt(ds)
		if accQ < accF-0.08 {
			t.Fatalf("%s: quantized %.2f far below float %.2f", act.Name(), accQ, accF)
		}
		// The fused op must carry the right activation kind.
		first := qn.Convs()[0]
		switch act.(type) {
		case *Sigmoid:
			if first.Act != ActSigmoid {
				t.Fatal("sigmoid not fused")
			}
			// Sigmoid outputs are non-negative.
			if first.Remap(-10000) < 0 {
				t.Fatal("sigmoid remap negative")
			}
		case *GELU:
			if first.Act != ActGELU {
				t.Fatal("gelu not fused")
			}
		}
	}
}

func quadrant6Task(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 3))
	ds := &Dataset{Classes: 4}
	for i := 0; i < n; i++ {
		label := i % 4
		x := NewTensor(1, 6, 6)
		oy, ox := (label/2)*3, (label%2)*3
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				x.Set(0, oy+dy, ox+dx, 0.7+0.3*rng.Float64())
			}
		}
		for j := range x.Data {
			x.Data[j] += rng.NormFloat64() * 0.05
		}
		ds.Samples = append(ds.Samples, Sample{X: x, Label: label})
	}
	return ds
}

func TestGELUBackwardGradientCheck(t *testing.T) {
	g := &GELU{}
	x := NewVector(5)
	copy(x.Data, []float64{-2, -0.5, 0, 0.7, 2.1})
	out := g.Forward(x, true)
	grad := NewVector(5)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	gin := g.Backward(grad)
	const eps = 1e-6
	for i := range x.Data {
		xp := x.Data[i] + eps
		xm := x.Data[i] - eps
		num := (gelu(xp) - gelu(xm)) / (2 * eps)
		if d := num - gin.Data[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("gelu grad at %v: analytic %v numerical %v", x.Data[i], gin.Data[i], num)
		}
	}
	_ = out
}
