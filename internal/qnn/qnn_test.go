package qnn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"athena/internal/coeffenc"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	x.Set(1, 2, 3, 5.5)
	if x.At(1, 2, 3) != 5.5 {
		t.Fatal("At/Set broken")
	}
	if x.Len() != 24 {
		t.Fatal("Len broken")
	}
	c := x.Clone()
	c.Set(0, 0, 0, 9)
	if x.At(0, 0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
	it := NewIntTensor(2, 2, 2)
	it.Set(1, 1, 1, -3)
	td := it.To3D()
	if td[1][1][1] != -3 {
		t.Fatal("To3D broken")
	}
	if Argmax([]float64{1, 5, 2}) != 1 || Argmax([]int64{3, 1, 7}) != 2 {
		t.Fatal("argmax broken")
	}
}

func TestConvForwardAgainstManual(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	c := NewConv2D(1, 1, 2, 1, 0, rng)
	copy(c.Weight.W, []float64{1, 2, 3, 4})
	c.Bias.W[0] = 0.5
	x := NewTensor(1, 2, 2)
	copy(x.Data, []float64{1, 1, 1, 1})
	out := c.Forward(x, false)
	if out.H != 1 || out.W != 1 {
		t.Fatalf("out dims %dx%d", out.H, out.W)
	}
	if math.Abs(out.Data[0]-10.5) > 1e-12 {
		t.Fatalf("conv got %f want 10.5", out.Data[0])
	}
}

func TestDenseGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny dense layer.
	rng := rand.New(rand.NewPCG(2, 2))
	d := NewDense(4, 3, rng)
	x := NewVector(4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	label := 1
	loss := func() float64 {
		_, l := softmaxGrad(d.Forward(x, false), label)
		return l
	}
	out := d.Forward(x, true)
	grad, _ := softmaxGrad(out, label)
	d.Backward(grad)
	const eps = 1e-6
	for i := 0; i < len(d.Weight.W); i += 3 {
		orig := d.Weight.W[i]
		d.Weight.W[i] = orig + eps
		lp := loss()
		d.Weight.W[i] = orig - eps
		lm := loss()
		d.Weight.W[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-d.Weight.G[i]) > 1e-4 {
			t.Fatalf("weight %d: analytic %g numerical %g", i, d.Weight.G[i], num)
		}
	}
}

func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	c := NewConv2D(2, 2, 3, 1, 1, rng)
	x := NewTensor(2, 4, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	d := NewDense(2*4*4, 3, rng)
	label := 2
	loss := func() float64 {
		_, l := softmaxGrad(d.Forward(c.Forward(x, false), false), label)
		return l
	}
	h := c.Forward(x, true)
	out := d.Forward(h, true)
	grad, _ := softmaxGrad(out, label)
	c.Backward(d.Backward(grad))
	const eps = 1e-6
	for i := 0; i < len(c.Weight.W); i += 13 {
		orig := c.Weight.W[i]
		c.Weight.W[i] = orig + eps
		lp := loss()
		c.Weight.W[i] = orig - eps
		lm := loss()
		c.Weight.W[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-c.Weight.G[i]) > 1e-4 {
			t.Fatalf("conv weight %d: analytic %g numerical %g", i, c.Weight.G[i], num)
		}
	}
}

func TestPoolLayers(t *testing.T) {
	x := NewTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	mp := (&MaxPool{K: 2}).Forward(x, false)
	if mp.At(0, 0, 0) != 5 || mp.At(0, 1, 1) != 15 {
		t.Fatalf("maxpool wrong: %v", mp.Data)
	}
	ap := (&AvgPool{K: 2}).Forward(x, false)
	if ap.At(0, 0, 0) != (0+1+4+5)/4.0 {
		t.Fatalf("avgpool wrong: %v", ap.Data)
	}
}

func TestSynthDigitsProperties(t *testing.T) {
	ds := SynthDigits(100, 1)
	if len(ds.Samples) != 100 || ds.Classes != 10 {
		t.Fatal("dataset shape wrong")
	}
	labels := map[int]int{}
	for _, s := range ds.Samples {
		labels[s.Label]++
		if s.X.C != 1 || s.X.H != 28 || s.X.W != 28 {
			t.Fatal("image shape wrong")
		}
		for _, v := range s.X.Data {
			if v < 0 || v > 1 {
				t.Fatal("pixel out of range")
			}
		}
	}
	for l := 0; l < 10; l++ {
		if labels[l] != 10 {
			t.Fatalf("label %d count %d", l, labels[l])
		}
	}
	// Same seed reproduces; different seed differs.
	a := SynthDigits(10, 2).Samples[3].X
	b := SynthDigits(10, 2).Samples[3].X
	c := SynthDigits(10, 3).Samples[3].X
	same, diff := true, false
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
		if a.Data[i] != c.Data[i] {
			diff = true
		}
	}
	if !same || !diff {
		t.Fatal("dataset determinism broken")
	}
}

func TestSynthCIFARProperties(t *testing.T) {
	ds := SynthCIFAR(50, 4)
	if ds.Samples[0].X.C != 3 || ds.Samples[0].X.H != 32 {
		t.Fatal("cifar shape wrong")
	}
	// Different seeds share class structure: a linear probe trained on
	// one seed should beat chance on another; here we just check that
	// intra-class distance < inter-class distance on raw pixels.
	other := SynthCIFAR(50, 5)
	dist := func(a, b *Tensor) float64 {
		d := 0.0
		for i := range a.Data {
			x := a.Data[i] - b.Data[i]
			d += x * x
		}
		return d
	}
	intra, inter, ni, nj := 0.0, 0.0, 0, 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			d := dist(ds.Samples[i].X, other.Samples[j].X)
			if ds.Samples[i].Label == other.Samples[j].Label {
				intra += d
				ni++
			} else {
				inter += d
				nj++
			}
		}
	}
	if intra/float64(ni) >= inter/float64(nj) {
		t.Fatal("classes not structured: intra-class distance >= inter-class")
	}
}

func TestModelShapes(t *testing.T) {
	for _, name := range BenchmarkModels {
		net, err := ModelByName(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		x := NewTensor(net.InC, net.InH, net.InW)
		out := net.Forward(x, nil)
		if out.Len() != 10 {
			t.Fatalf("%s output size %d", name, out.Len())
		}
	}
	if _, err := ModelByName("VGG", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewResNet(21, 1); err == nil {
		t.Fatal("bad depth accepted")
	}
}

func TestResNetLayerCount(t *testing.T) {
	// ResNet-20: 19 convolutions + 1 FC (paper Section 5.1), plus
	// projection shortcuts.
	net, _ := NewResNet(20, 1)
	convs, dense := 0, 0
	for _, b := range net.Blocks {
		for _, l := range b.Layers() {
			switch l.(type) {
			case *Conv2D:
				convs++
			case *Dense:
				dense++
			}
		}
	}
	// 1 stem + 18 block convs + 2 projection shortcuts.
	if convs != 21 || dense != 1 {
		t.Fatalf("ResNet-20 has %d convs, %d dense", convs, dense)
	}
}

func trainSmallMNIST(t testing.TB) (*Network, *Dataset, *Dataset) {
	t.Helper()
	train := SynthDigits(900, 11)
	test := SynthDigits(200, 12)
	net := NewMNISTNet(13)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	Train(net, train, cfg)
	return net, train, test
}

func TestTrainingLearns(t *testing.T) {
	net, _, test := trainSmallMNIST(t)
	acc := Accuracy(net, test)
	if acc < 0.8 {
		t.Fatalf("trained MNIST accuracy %.2f below 0.8", acc)
	}
}

func TestQuantizePreservesAccuracy(t *testing.T) {
	net, train, test := trainSmallMNIST(t)
	accF := Accuracy(net, test)
	for _, wb := range []int{7, 6} {
		cfg := DefaultQuantConfig()
		cfg.WBits = wb
		qn, err := Quantize(net, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		accQ := qn.AccuracyInt(test)
		if accQ < accF-0.05 {
			t.Fatalf("w%da7 accuracy %.3f much below float %.3f", wb, accQ, accF)
		}
	}
}

func TestNoisyInferenceTracksClean(t *testing.T) {
	net, train, test := trainSmallMNIST(t)
	qn, err := Quantize(net, train, DefaultQuantConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := qn.AccuracyInt(test)
	noisy := qn.AccuracyNoisy(test, 8, 1)
	if noisy < clean-0.05 {
		t.Fatalf("e_ms-injected accuracy %.3f far below clean %.3f", noisy, clean)
	}
	// Absurd noise must hurt (sanity that injection is live).
	wrecked := qn.AccuracyNoisy(test, 1e6, 1)
	if wrecked > clean-0.1 {
		t.Fatalf("extreme noise did not reduce accuracy: %.3f vs %.3f", wrecked, clean)
	}
}

func TestQuantizedResidualScalesAlign(t *testing.T) {
	net, err := NewResNet(20, 21)
	if err != nil {
		t.Fatal(err)
	}
	calib := SynthCIFAR(8, 22)
	qn, err := Quantize(net, calib, DefaultQuantConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range qn.Blocks {
		r, ok := b.(*QResidual)
		if !ok {
			continue
		}
		bodyLast := r.Body[len(r.Body)-1].(*QConv)
		var shortScale float64
		if len(r.Shortcut) > 0 {
			shortScale = r.Shortcut[len(r.Shortcut)-1].(*QConv).OutScale
		} else {
			shortScale = bodyLast.InScale // identity branch carries input scale
		}
		_ = shortScale
		if bodyLast.Act != ActNone {
			t.Fatal("body's final conv must not fuse an activation (ReLU follows the add)")
		}
	}
	// Integer forward must run end to end.
	out := qn.ForwardInt(qn.QuantizeInput(calib.Samples[0].X))
	if out.Len() != 10 {
		t.Fatalf("quantized resnet output %d", out.Len())
	}
}

func TestQuantizeRejectsBadConfig(t *testing.T) {
	net := NewMNISTNet(1)
	ds := SynthDigits(4, 1)
	if _, err := Quantize(net, ds, QuantConfig{WBits: 1, ABits: 7}); err == nil {
		t.Fatal("wbits=1 accepted")
	}
	if _, err := Quantize(net, ds, QuantConfig{WBits: 7, ABits: 40}); err == nil {
		t.Fatal("abits=40 accepted")
	}
}

func TestQConvRemapFunction(t *testing.T) {
	q := &QConv{Act: ActReLU, Multiplier: 1.0 / 16, ActBits: 7}
	if q.Remap(-500) != 0 {
		t.Fatal("relu remap of negative not zero")
	}
	if q.Remap(160) != 10 {
		t.Fatalf("remap(160) = %d want 10", q.Remap(160))
	}
	if q.Remap(1<<20) != 63 {
		t.Fatal("remap does not clamp to 2^(a-1)-1")
	}
	q2 := &QConv{Act: ActNone, Multiplier: 1, ActBits: 7}
	if q2.Remap(-1000) != -63 {
		t.Fatal("signed clamp broken")
	}
}

func TestRoundDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 4, 3}, {9, 4, 2}, {-10, 4, -3}, {-9, 4, -2}, {0, 4, 0}, {8, 4, 2},
	}
	for _, c := range cases {
		if got := RoundDiv(c.a, c.b); got != c.want {
			t.Errorf("RoundDiv(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestReadoutTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("ResNet feature extraction is slow; run without -short")
	}
	net, err := NewResNet(20, 31)
	if err != nil {
		t.Fatal(err)
	}
	train := SynthCIFAR(200, 32)
	test := SynthCIFAR(100, 33)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.LR = 0.1
	TrainReadout(net, train, cfg)
	last := net.Blocks[len(net.Blocks)-1].(Seq)
	dense := last[len(last)-1].(*Dense)
	var g goldenText
	for o := 0; o < dense.Out; o++ {
		g.add(fmt.Sprintf("weights %d", o), dense.Weight.W[o*dense.In:(o+1)*dense.In]...)
	}
	g.add("bias", dense.Bias.W...)
	g.check(t, "readout.golden")
	acc := Accuracy(net, test)
	if acc < 0.4 {
		t.Fatalf("readout-trained ResNet-20 accuracy %.2f below 0.4 (chance is 0.1)", acc)
	}
	t.Logf("ResNet-20 readout accuracy on synth-CIFAR: %.3f", acc)
}

// Accumulate adds each weight's products over the outputs its tap
// reaches; it must equal the direct sum over each output's window on
// every geometry: strides, padding up to K−1, non-square inputs.
func TestAccumulateMatchesWindowSums(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 5000; trial++ {
		k := 1 + rng.IntN(5)
		s := coeffenc.ConvShape{H: 1 + rng.IntN(9), W: 1 + rng.IntN(9), Cin: 1 + rng.IntN(3), Cout: 1 + rng.IntN(3), K: k, Stride: 1 + rng.IntN(3), Pad: rng.IntN(k)}
		if s.K > s.H+2*s.Pad || s.K > s.W+2*s.Pad {
			continue
		}
		q := &QConv{Shape: s, Bias: make([]int64, s.Cout), Weights: make([][][][]int64, s.Cout)}
		for co := range q.Weights {
			q.Bias[co] = rng.Int64N(100) - 50
			q.Weights[co] = make([][][]int64, s.Cin)
			for ci := range q.Weights[co] {
				q.Weights[co][ci] = make([][]int64, k)
				for i := range q.Weights[co][ci] {
					q.Weights[co][ci][i] = make([]int64, k)
					for j := range q.Weights[co][ci][i] {
						q.Weights[co][ci][i][j] = rng.Int64N(15) - 7
					}
				}
			}
		}
		x := NewIntTensor(s.Cin, s.H, s.W)
		for i := range x.Data {
			x.Data[i] = rng.Int64N(31) - 15
		}
		got := q.Accumulate(x)
		for co := 0; co < s.Cout; co++ {
			for y := 0; y < s.OutH(); y++ {
				for xx := 0; xx < s.OutW(); xx++ {
					want := q.Bias[co]
					for ci := 0; ci < s.Cin; ci++ {
						for i := 0; i < k; i++ {
							for j := 0; j < k; j++ {
								h, w := y*s.Stride+i-s.Pad, xx*s.Stride+j-s.Pad
								if h >= 0 && h < s.H && w >= 0 && w < s.W {
									want += x.At(ci, h, w) * q.Weights[co][ci][i][j]
								}
							}
						}
					}
					if v := got.At(co, y, xx); v != want {
						t.Fatalf("%+v: output (%d,%d,%d) = %d, window sum %d", s, co, y, xx, v, want)
					}
				}
			}
		}
	}
}
