package athena_test

import (
	"fmt"

	"athena"
)

// The smallest complete encrypted-inference round trip: a hand-built
// quantized layer runs under FHE and the decrypted result matches the
// plaintext reference. Every accumulator sits mid-interval of its remap's
// rounding (16 → 1 and 0 → 0 at a multiplier of 1/16, −4 → 0 under the
// ReLU), eight units from a boundary, so the extraction noise e_ms, a few
// units, cannot move a rounding and the match is exact.
func Example() {
	eng, err := athena.NewEngine(athena.TestParams())
	if err != nil {
		panic(err)
	}
	// A 1-channel edge detector with fused ReLU, then a 2-way readout
	// counting the lit pixels of the top and bottom halves.
	conv := &athena.QConv{
		Shape: athena.ConvShape{H: 6, W: 6, Cin: 1, Cout: 1, K: 3, Stride: 1, Pad: 1},
		Weights: [][][][]int64{{{
			{0, -1, 0},
			{-1, 4, -1},
			{0, -1, 0},
		}}},
		Bias: []int64{0}, Act: athena.ActReLU,
		Multiplier: 1.0 / 16, ActBits: 4, MaxAcc: 120,
	}
	dense := &athena.QConv{
		Shape:   athena.FCShape(36, 2),
		Weights: make([][][][]int64, 2),
		Bias:    []int64{0, 0}, Act: athena.ActNone,
		Multiplier: 1, ActBits: 4, IsDense: true, MaxAcc: 120,
	}
	for o := 0; o < 2; o++ {
		dense.Weights[o] = make([][][]int64, 36)
		for i := 0; i < 36; i++ {
			w := int64(0)
			if (i/6 < 3) == (o == 0) {
				w = 1
			}
			dense.Weights[o][i] = [][]int64{{w}}
		}
	}
	net := &athena.QNetwork{
		Name: "example", InC: 1, InH: 6, InW: 6,
		WBits: 3, ABits: 4, InScale: 1,
		Blocks: []athena.QBlock{athena.QSeq{conv, dense}},
	}

	// Three isolated lit pixels: two in the top half, one in the bottom.
	x := athena.NewIntTensor(1, 6, 6)
	x.Set(0, 1, 1, 4)
	x.Set(0, 1, 4, 4)
	x.Set(0, 4, 2, 4)

	logits, err := eng.Infer(net, x)
	if err != nil {
		panic(err)
	}
	want := net.ForwardInt(x).Data
	fmt.Println("logits:", want)
	fmt.Println("encrypted == plaintext:", logits[0] == want[0] && logits[1] == want[1])
	// Output:
	// logits: [2 1]
	// encrypted == plaintext: true
}

// Lowering a paper benchmark onto the Athena framework and pricing it on
// the simulated accelerator.
func ExampleSimulate() {
	qn, err := athena.SpecModel("ResNet-20", 7, 7)
	if err != nil {
		panic(err)
	}
	tr, err := athena.CompileTrace(qn, athena.FullParams())
	if err != nil {
		panic(err)
	}
	r := athena.Simulate(tr, athena.AthenaHW())
	fmt.Println("ResNet-20 w7a7 latency in the paper's ballpark (49-82 ms):",
		r.TimeMS > 49 && r.TimeMS < 82)
	// Output: ResNet-20 w7a7 latency in the paper's ballpark (49-82 ms): true
}
