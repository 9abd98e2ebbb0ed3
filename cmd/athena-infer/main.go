// Command athena-infer runs a small hand-built quantized CNN fully
// under encryption (the complete five-step Athena loop at reduced,
// functional parameters) and compares the decrypted logits against the
// bit-exact plaintext reference.
//
//	athena-infer            # conv→conv→FC chain
//	athena-infer -pool max  # adds an encrypted max-pooling layer
//
// With -connect, the inference instead runs against a remote
// athena-serve instance: the client keeps its secret key, uploads only
// the public evaluation material, and ships/receives ciphertexts over
// the frame protocol.
//
//	athena-infer -connect 127.0.0.1:7700
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"athena"
	"athena/internal/serve"
	serveclient "athena/internal/serve/client"
)

func tinyConv(shape athena.ConvShape, act athena.Activation, mult float64, seed uint64) *athena.QConv {
	rng := rand.New(rand.NewPCG(seed, 0x7c))
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
	bias := make([]int64, shape.Cout)
	for i := range bias {
		bias[i] = int64(rng.IntN(5)) - 2
	}
	return &athena.QConv{
		Shape: shape, Weights: w, Bias: bias, Act: act,
		Multiplier: mult, ActBits: 4, MaxAcc: 120,
		IsDense: shape.H == 1 && shape.K == 1,
	}
}

// runRemote drives a remote athena-serve instance hosting the built-in
// wire-demo model: upload evaluation keys, stream n encrypted requests,
// decrypt and check each reply against the plaintext reference.
func runRemote(addr string, eng *athena.Engine, seed uint64, n int) {
	net := serve.DemoNet()
	c, err := serveclient.Dial(addr, eng, serveclient.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Println("uploading evaluation keys...")
	id, err := c.OpenSession()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s\n", id)
	for i := 0; i < n; i++ {
		x := serve.DemoInput(seed + uint64(i))
		got, err := c.Infer(net, x, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request %d: encrypted logits %v  (plaintext %v)\n", i, got, net.ForwardInt(x).Data)
	}
	if snap, err := c.Stats(); err == nil {
		fmt.Printf("server: %d batches, mean batch size %.2f, %d dispatched alone\n", snap.Batches, snap.MeanBatchSize, snap.Flushes.Alone)
	}
}

func main() {
	pool := flag.String("pool", "none", "pooling layer: none, max, avg")
	seed := flag.Uint64("seed", 42, "input seed")
	load := flag.String("load", "", "run a saved model (JSON from QNetwork.WriteJSON) instead of the built-in demo")
	preset := flag.String("preset", "test", "engine parameters: test (N=128,t=257) or medium (N=2048,t=65537); saved models generally need medium")
	connect := flag.String("connect", "", "run against a remote athena-serve at this address instead of locally")
	count := flag.Int("n", 1, "with -connect: number of requests to stream")
	flag.Parse()

	params := athena.TestParams()
	switch *preset {
	case "test":
	case "medium":
		params = athena.MediumParams()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	fmt.Println("generating keys (BFV + LWE keyswitch + packing + S2C)...")
	eng, err := athena.NewEngine(params)
	if err != nil {
		log.Fatal(err)
	}

	if *connect != "" {
		runRemote(*connect, eng, *seed, *count)
		return
	}

	var net *athena.QNetwork
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		net, err = athena.ReadModelJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded model %q (%dx%dx%d input)\n", net.Name, net.InC, net.InH, net.InW)
	}

	conv1 := tinyConv(athena.ConvShape{H: 6, W: 6, Cin: 1, Cout: 2, K: 3, Stride: 1, Pad: 1}, athena.ActReLU, 1.0/8, 1)
	var ops athena.QSeq
	switch *pool {
	case "none":
		ops = athena.QSeq{
			conv1,
			tinyConv(athena.ConvShape{H: 6, W: 6, Cin: 2, Cout: 2, K: 3, Stride: 1, Pad: 1}, athena.ActReLU, 1.0/8, 2),
			tinyConv(athena.FCShape(2*6*6, 4), athena.ActNone, 1.0/4, 3),
		}
	case "max":
		ops = athena.QSeq{conv1, &athena.QMaxPool{K: 2}, tinyConv(athena.FCShape(2*3*3, 4), athena.ActNone, 1.0/4, 3)}
	case "avg":
		ops = athena.QSeq{conv1, &athena.QAvgPool{K: 2}, tinyConv(athena.FCShape(2*3*3, 4), athena.ActNone, 1.0/4, 3)}
	default:
		log.Fatalf("unknown pool %q", *pool)
	}
	if net == nil {
		net = &athena.QNetwork{
			Name: "demo", InC: 1, InH: 6, InW: 6, WBits: 2, ABits: 4, InScale: 1,
			Blocks: []athena.QBlock{ops},
		}
	}

	rng := rand.New(rand.NewPCG(*seed, 1))
	x := athena.NewIntTensor(net.InC, net.InH, net.InW)
	for i := range x.Data {
		x.Data[i] = int64(rng.IntN(8))
	}

	fmt.Println("running encrypted inference (five-step Athena loop)...")
	got, err := eng.Infer(net, x)
	if err != nil {
		log.Fatal(err)
	}
	want := net.ForwardInt(x).Data
	fmt.Printf("encrypted logits : %v\n", got)
	fmt.Printf("plaintext logits : %v\n", want)
	fmt.Println("(small deviations are the paper's e_ms modulus-switching noise,")
	fmt.Println(" bounded by ±1-2 at the final remap — Section 3.3 / Fig. 4)")
	fmt.Printf("ops: %+v\n", eng.Stats)
}
