// Package athena is a from-scratch Go reproduction of "Athena:
// Accelerating Quantized Convolutional Neural Networks under Fully
// Homomorphic Encryption" (MICRO 2025): a BFV-based framework that runs
// quantized CNN inference under FHE with small parameters (N = 2^15,
// t = 65537) by combining coefficient-encoded linear layers, RLWE→LWE
// ciphertext conversion, BSGS repacking, and LUT-based functional
// bootstrapping — plus a cycle-accounting simulator of the paper's
// accelerator and its baselines.
//
// The package is a facade: the heavy lifting lives in internal packages
// (ring, rns, bfv, lwe, pack, fbs, coeffenc, qnn, core, compiler, arch,
// noise, ckksref, report), re-exported here as type aliases and thin
// constructors so downstream users have a single import.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	eng, _ := athena.NewEngine(athena.TestParams())
//	logits, _ := eng.Infer(qnet, input) // fully under encryption
package athena

import (
	"io"

	"athena/internal/arch"
	"athena/internal/coeffenc"
	"athena/internal/compiler"
	"athena/internal/core"
	"athena/internal/qnn"
)

// Params fixes an engine parameter set (ring degree, modulus chain,
// plaintext modulus, LWE dimension, conversion moduli).
type Params = core.Params

// TestParams is the smallest fully-functional parameter set (t = 257,
// N = 2^7): every pipeline stage runs with zero security margin —
// intended for tests and demos.
func TestParams() Params { return core.TestParams() }

// MediumParams supports small real models (t = 65537, N = 2^11).
func MediumParams() Params { return core.MediumParams() }

// FullParams is the paper's production setting (N = 2^15, log2 Q = 720,
// t = 65537, n = 2048); used by the compiler/simulator pair.
func FullParams() Params { return core.FullParams() }

// Engine holds all key material and runs quantized networks under FHE
// through the five-step Athena loop.
type Engine = core.Engine

// Client/server boundary types of the three-phase inference API
// (Engine.EncryptInput → Engine.EvaluateEncrypted → Engine.DecryptLogits).
type (
	// EncryptedInput is the client's ciphertext bundle for one inference.
	EncryptedInput = core.EncryptedInput
	// EncryptedLogits is the server's encrypted result bundle.
	EncryptedLogits = core.EncryptedLogits
	// SoftmaxConfig scales the encrypted softmax decomposition.
	SoftmaxConfig = core.SoftmaxConfig
	// InputRangeError is EncryptInput's refusal of a value outside the
	// network's input domain ±(2^(ABits−1) − 1).
	InputRangeError = core.InputRangeError
)

// NewEngine generates all key material (BFV keys, LWE keyswitching key,
// packing keys, compiled S2C transform) for the parameter set.
func NewEngine(p Params) (*Engine, error) { return core.NewEngine(p) }

// Float-network and quantization surface.
type (
	// Network is a float CNN (trainable for the small benchmarks).
	Network = qnn.Network
	// Dataset is a labeled sample collection.
	Dataset = qnn.Dataset
	// Sample is one labeled input.
	Sample = qnn.Sample
	// QNetwork is an integer-exact quantized network — the program the
	// engine executes under encryption.
	QNetwork = qnn.QNetwork
	// QuantConfig controls post-training quantization (wbits/abits).
	QuantConfig = qnn.QuantConfig
	// TrainConfig controls SGD training.
	TrainConfig = qnn.TrainConfig
	// IntTensor is an integer activation tensor.
	IntTensor = qnn.IntTensor
	// Tensor is a float tensor.
	Tensor = qnn.Tensor
)

// ModelByName builds one of the paper's four benchmarks: "MNIST",
// "LeNet", "ResNet-20", "ResNet-56".
func ModelByName(name string, seed uint64) (*Network, error) { return qnn.ModelByName(name, seed) }

// BenchmarkModels lists the paper's benchmarks in evaluation order.
var BenchmarkModels = qnn.BenchmarkModels

// NewDigitNet14 builds a compact 14×14 digit classifier that fits the
// reduced encrypted-inference parameters (see examples/mnistcnn).
func NewDigitNet14(seed uint64) *Network { return qnn.NewDigitNet14(seed) }

// NewShapeNet6 builds the smallest network exercising encrypted max
// pooling (see examples/lenet).
func NewShapeNet6(seed uint64) *Network { return qnn.NewShapeNet6(seed) }

// SynthDigits generates the MNIST stand-in dataset (see DESIGN.md).
func SynthDigits(n int, seed uint64) *Dataset { return qnn.SynthDigits(n, seed) }

// SynthCIFAR generates the CIFAR-10 stand-in dataset.
func SynthCIFAR(n int, seed uint64) *Dataset { return qnn.SynthCIFAR(n, seed) }

// Train runs SGD on a sequential network (MNIST/LeNet scale).
func Train(net *Network, ds *Dataset, cfg TrainConfig) float64 { return qnn.Train(net, ds, cfg) }

// TrainReadout trains only the final classifier on frozen features
// (how the deep ResNets obtain a usable head here).
func TrainReadout(net *Network, ds *Dataset, cfg TrainConfig) float64 {
	return qnn.TrainReadout(net, ds, cfg)
}

// DefaultTrainConfig returns sane settings for the synthetic tasks.
func DefaultTrainConfig() TrainConfig { return qnn.DefaultTrainConfig() }

// Quantize converts a trained float network into the integer-exact form
// the engine executes.
func Quantize(net *Network, calib *Dataset, cfg QuantConfig) (*QNetwork, error) {
	return qnn.Quantize(net, calib, cfg)
}

// DefaultQuantConfig returns the paper's primary w7a7 setting.
func DefaultQuantConfig() QuantConfig { return qnn.DefaultQuantConfig() }

// ReadModelJSON loads a quantized network saved with QNetwork.WriteJSON.
func ReadModelJSON(r io.Reader) (*QNetwork, error) { return qnn.ReadJSONNetwork(r) }

// Quantized-network building blocks, for hand-authored models (the
// examples use these; trained models come out of Quantize).
type (
	// QConv is a quantized convolution or dense layer with its fused
	// remap+activation.
	QConv = qnn.QConv
	// QSeq applies quantized ops in order.
	QSeq = qnn.QSeq
	// QResidual is a quantized residual block.
	QResidual = qnn.QResidual
	// QMaxPool is integer max pooling (max-tree of FBS lookups under FHE).
	QMaxPool = qnn.QMaxPool
	// QAvgPool is integer average pooling (LWE window sums + divide LUT).
	QAvgPool = qnn.QAvgPool
	// QBlock is a structural unit of a quantized network.
	QBlock = qnn.QBlock
	// ConvShape describes a convolution layer's geometry.
	ConvShape = coeffenc.ConvShape
	// Activation selects the non-linearity fused into a remap LUT.
	Activation = qnn.Activation
)

// Fused activations.
const (
	// ActNone requantizes without a non-linearity.
	ActNone = qnn.ActNone
	// ActReLU fuses the rectifier.
	ActReLU = qnn.ActReLU
)

// FCShape returns the conv shape realizing an F→G fully-connected layer.
func FCShape(f, g int) ConvShape { return coeffenc.FCShape(f, g) }

// NewIntTensor allocates a zero integer tensor.
func NewIntTensor(c, h, w int) *IntTensor { return qnn.NewIntTensor(c, h, w) }

// Accelerator-simulation surface.
type (
	// Trace is a quantized network lowered onto the Athena framework.
	Trace = compiler.Trace
	// HWConfig describes one accelerator instance.
	HWConfig = arch.Config
	// SimResult is a simulated run's timing/energy outcome.
	SimResult = arch.Result
)

// CompileTrace prices the engine's schedule of a quantized network at p.
func CompileTrace(q *QNetwork, p Params) (*Trace, error) { return compiler.Compile(q, p) }

// SpecModel builds an untrained benchmark model with heuristic
// accumulator bounds, for tracing and simulation.
func SpecModel(name string, wBits, aBits int) (*QNetwork, error) {
	return compiler.SpecModel(name, wBits, aBits)
}

// AthenaHW returns the paper's accelerator configuration (Table 9).
func AthenaHW() HWConfig { return arch.AthenaConfig() }

// Simulate prices a trace on a hardware configuration.
func Simulate(tr *Trace, cfg HWConfig) *SimResult { return arch.Simulate(tr, cfg) }
