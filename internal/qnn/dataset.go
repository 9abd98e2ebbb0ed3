package qnn

import (
	"math"
	"math/rand/v2"
)

// Sample is one labeled input.
type Sample struct {
	X     *Tensor
	Label int
}

// Dataset is a labeled sample collection.
type Dataset struct {
	Name    string
	Classes int
	Samples []Sample
}

// digitStrokes encodes each digit 0-9 as line segments on a 7×7 design
// grid ((x1,y1)-(x2,y2) quadruples), a compact procedural stand-in for
// MNIST glyphs.
var digitStrokes = [10][][4]int{
	{{1, 1, 5, 1}, {1, 1, 1, 5}, {5, 1, 5, 5}, {1, 5, 5, 5}},               // 0
	{{3, 0, 3, 6}, {2, 1, 3, 0}},                                           // 1
	{{1, 1, 5, 1}, {5, 1, 5, 3}, {5, 3, 1, 5}, {1, 5, 5, 5}},               // 2
	{{1, 1, 5, 1}, {5, 1, 5, 5}, {1, 5, 5, 5}, {2, 3, 5, 3}},               // 3
	{{1, 0, 1, 3}, {1, 3, 5, 3}, {4, 0, 4, 6}},                             // 4
	{{5, 1, 1, 1}, {1, 1, 1, 3}, {1, 3, 5, 3}, {5, 3, 5, 5}, {5, 5, 1, 5}}, // 5
	{{5, 1, 1, 1}, {1, 1, 1, 5}, {1, 5, 5, 5}, {5, 5, 5, 3}, {5, 3, 1, 3}}, // 6
	{{1, 1, 5, 1}, {5, 1, 2, 6}},                                           // 7
	{{1, 1, 5, 1}, {1, 1, 1, 5}, {5, 1, 5, 5}, {1, 5, 5, 5}, {1, 3, 5, 3}}, // 8
	{{1, 3, 5, 3}, {1, 1, 1, 3}, {1, 1, 5, 1}, {5, 1, 5, 5}, {5, 5, 1, 5}}, // 9
}

// SynthDigits generates n procedurally drawn digit images (1×28×28,
// values in [0,1]) with random shift, thickness, and pixel noise. It is
// the reproduction's stand-in for MNIST (see DESIGN.md).
func SynthDigits(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x5d))
	ds := &Dataset{Name: "synth-digits", Classes: 10, Samples: make([]Sample, n)}
	for i := range ds.Samples {
		label := i % 10
		ds.Samples[i] = Sample{X: renderDigit(label, rng), Label: label}
	}
	return ds
}

func renderDigit(label int, rng *rand.Rand) *Tensor {
	const size = 28
	img := NewTensor(1, size, size)
	// Random affine-ish jitter: scale the 7×7 design grid to ~20px with
	// shift and per-stroke wobble.
	scale := 2.6 + rng.Float64()*0.8
	ox := 2 + rng.Float64()*6
	oy := 2 + rng.Float64()*6
	thick := 1 + rng.IntN(2)
	for _, s := range digitStrokes[label] {
		x1 := ox + float64(s[0])*scale + rng.Float64() - 0.5
		y1 := oy + float64(s[1])*scale + rng.Float64() - 0.5
		x2 := ox + float64(s[2])*scale + rng.Float64() - 0.5
		y2 := oy + float64(s[3])*scale + rng.Float64() - 0.5
		steps := 2 * int(max(math.Abs(x2-x1), math.Abs(y2-y1))+1)
		for st := 0; st <= steps; st++ {
			f := float64(st) / float64(steps)
			cx := int(x1 + (x2-x1)*f)
			cy := int(y1 + (y2-y1)*f)
			for dy := 0; dy < thick; dy++ {
				for dx := 0; dx < thick; dx++ {
					px, py := cx+dx, cy+dy
					if px >= 0 && px < size && py >= 0 && py < size {
						img.Set(0, py, px, 1)
					}
				}
			}
		}
	}
	// Pixel noise.
	for j := range img.Data {
		img.Data[j] += rng.NormFloat64() * 0.08
		if img.Data[j] < 0 {
			img.Data[j] = 0
		}
		if img.Data[j] > 1 {
			img.Data[j] = 1
		}
	}
	return img
}

// SynthCIFAR generates n 3×32×32 images in 10 classes. Each class is a
// fixed random texture basis (three oriented sinusoid components with
// class-specific frequencies and colors); instances add random phase,
// shift, contrast, and noise. It stands in for CIFAR-10: non-trivially
// separable, translation-perturbed, and channel-correlated.
func SynthCIFAR(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0xc1fa))
	// Class prototypes are derived from a fixed generator so that train
	// and test sets (different seeds) share classes.
	proto := rand.New(rand.NewPCG(0xa11ce, 0xc1fa))
	type comp struct {
		fx, fy, phase, amp float64
		ch                 int
	}
	classComps := make([][]comp, 10)
	for c := range classComps {
		classComps[c] = make([]comp, 4)
		for k := range classComps[c] {
			classComps[c][k] = comp{
				fx:    (proto.Float64() - 0.5) * 1.4,
				fy:    (proto.Float64() - 0.5) * 1.4,
				phase: proto.Float64() * 6.28,
				amp:   0.4 + proto.Float64()*0.6,
				ch:    proto.IntN(3),
			}
		}
	}
	// Class-specific color tints and coarse gradients: these low-order
	// statistics survive random convolutional features and global average
	// pooling, so a frozen-feature readout can learn the task.
	tint := make([][3]float64, 10)
	gradDir := make([][2]float64, 10)
	for c := range tint {
		for ch := 0; ch < 3; ch++ {
			tint[c][ch] = (proto.Float64() - 0.5) * 0.7
		}
		ang := proto.Float64() * 6.28318
		gradDir[c] = [2]float64{math.Cos(ang), math.Sin(ang)}
	}
	ds := &Dataset{Name: "synth-cifar", Classes: 10, Samples: make([]Sample, n)}
	for i := range ds.Samples {
		label := i % 10
		img := NewTensor(3, 32, 32)
		dx := rng.Float64()*6 - 3
		dy := rng.Float64()*6 - 3
		contrast := 0.7 + rng.Float64()*0.6
		for _, cp := range classComps[label] {
			ph := cp.phase + rng.NormFloat64()*0.25
			for y := 0; y < 32; y++ {
				for x := 0; x < 32; x++ {
					v := cp.amp * math.Sin(cp.fx*(float64(x)+dx)+cp.fy*(float64(y)+dy)+ph)
					img.Data[(cp.ch*32+y)*32+x] += v * contrast
				}
			}
		}
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < 32; y++ {
				for x := 0; x < 32; x++ {
					g := (gradDir[label][0]*float64(x-16) + gradDir[label][1]*float64(y-16)) / 16.0
					img.Data[(ch*32+y)*32+x] += tint[label][ch] + 0.25*g
				}
			}
		}
		for j := range img.Data {
			img.Data[j] = clamp(img.Data[j]*0.5+0.5+rng.NormFloat64()*0.12, 0, 1)
		}
		ds.Samples[i] = Sample{X: img, Label: label}
	}
	return ds
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
