// Package core implements the Athena framework engine: the five-step
// loop of Fig. 2 that runs a quantized CNN under FHE. Per linear layer:
//
//	① coefficient-encoded convolution / FC   (PMult + HAdd, no rotations)
//	② modulus switch Q → qMid                 (kills the linear noise)
//	③ sample extraction + N→n keyswitch +
//	   LWE modulus switch to t                 (RLWE → per-value LWE)
//	④ BSGS packing into BFV slots at Q         (homomorphic decryption =
//	                                            the noise refresh)
//	⑤ functional bootstrapping (fused
//	   activation+remap LUT) and S2C           (back to coefficients)
//
// Residual additions and average pooling run directly on LWE ciphertexts
// (phase addition); max pooling uses the PEGASUS-style max tree of
// b + ReLU(a−b) FBS lookups.
package core

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/ring"
)

// Params fixes an engine instance.
type Params struct {
	LogN   int    // BFV ring degree
	QiBits int    // bits per RNS prime
	QiNum  int    // number of RNS primes in Q
	T      uint64 // plaintext modulus (prime, 1 mod 2N)
	LWEDim int    // n: LWE dimension after the degree switch
	MidExp uint   // qMid = T << MidExp: extraction modulus
	KSBase uint64 // LWE keyswitch decomposition base
	Sigma  float64
	Seed   uint64

	// Level schedule for per-stage RNS modulus dropping. Packing and the
	// FBS polynomial evaluation run at FBSLevel limbs; everything after
	// the LUT — masking, S2C, the next layer's accumulation, extraction —
	// runs at PostLevel limbs. Zero selects the defaults (QiNum−2 clamped
	// to [2, QiNum] for FBS, 2 clamped to [1, FBSLevel] for post); set
	// FBSLevel = QiNum to disable dropping entirely.
	FBSLevel  int
	PostLevel int
}

// Levels resolves the (FBSLevel, PostLevel) schedule: explicit values are
// clamped into range, zeros take the defaults. FBS needs enough limbs for
// the ~log2(t) multiplicative depth of the LUT ladder; the post stages
// are depth-1 (plaintext products and one rescale), so two limbs of
// headroom above qMid suffice.
func (p Params) Levels() (fbsL, postL int) {
	fbsL = p.FBSLevel
	if fbsL == 0 {
		fbsL = p.QiNum - 1
	}
	if fbsL < 2 {
		fbsL = 2
	}
	if fbsL > p.QiNum {
		fbsL = p.QiNum
	}
	postL = p.PostLevel
	if postL == 0 {
		postL = 2
	}
	if postL < 1 {
		postL = 1
	}
	if postL > fbsL {
		postL = fbsL
	}
	return fbsL, postL
}

// TestParams is a reduced—but fully functional—parameter set: every code
// path of the full pipeline runs, with zero security margin. t = 257
// (a Fermat prime like the paper's 65537) keeps FBS at 37 ciphertext
// multiplications (fbs's 13 × 5 × 4 split) so integration tests finish
// quickly.
func TestParams() Params {
	return Params{
		LogN:   7,
		QiBits: 50,
		QiNum:  6,
		T:      257,
		LWEDim: 32,
		MidExp: 12,
		KSBase: 1 << 7,
		Sigma:  ring.DefaultSigma,
		Seed:   1,
	}
}

// FullParams is the paper's production setting (Section 3.3): N = 2^15,
// log2 Q = 720 (12 60-bit primes), t = 65537, n = 2048. Software
// execution at this size is possible but slow; it is primarily consumed
// by the compiler/simulator pair and the parameter/size calculators.
func FullParams() Params {
	return Params{
		LogN:   15,
		QiBits: 60,
		QiNum:  12,
		T:      65537,
		LWEDim: 2048,
		MidExp: 12,
		KSBase: 1 << 7,
		Sigma:  ring.DefaultSigma,
		Seed:   1,
	}
}

// MediumParams supports real (if small) quantized models: t = 65537
// holds 17-bit accumulators, N = 2^11 fits 28×28 feature maps.
func MediumParams() Params {
	return Params{
		LogN:   11,
		QiBits: 55,
		QiNum:  12,
		T:      65537,
		LWEDim: 128,
		MidExp: 12,
		KSBase: 1 << 7,
		Sigma:  ring.DefaultSigma,
		Seed:   1,
	}
}

// BFVParameters derives the bfv parameter set.
func (p Params) BFVParameters() (bfv.Parameters, error) {
	primes, err := ring.GenerateNTTPrimes(p.QiBits, p.LogN, p.QiNum)
	if err != nil {
		return bfv.Parameters{}, fmt.Errorf("core: %w", err)
	}
	return bfv.Parameters{LogN: p.LogN, Qi: primes, T: p.T, Sigma: p.Sigma}, nil
}

// QMid returns the intermediate extraction modulus t·2^MidExp.
func (p Params) QMid() uint64 { return p.T << p.MidExp }

// CiphertextBytes returns the size of one ciphertext at these parameters
// (Table 1's "Cipher. size" metric).
func (p Params) CiphertextBytes() int {
	return 2 * (1 << p.LogN) * p.QiNum * 8
}
