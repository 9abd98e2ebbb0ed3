package core

import (
	"fmt"
	"math"

	"athena/internal/fbs"
	"athena/internal/lwe"
)

// SoftmaxConfig scales the three-step softmax of Section 3.2.3 so every
// intermediate stays inside the plaintext modulus:
//
//	step ① LUT_exp(x)  = round(e^(x·InScale) · ExpScale)
//	step ② sum         = Σ_i exp_i                (LWE additions)
//	       LUT_inv(y)  = round(InvScale / y)
//	step ③ prob_i·InvScale ≈ CMult(exp_i, inv)    (one ciphertext product)
type SoftmaxConfig struct {
	InScale  float64 // logit → real exponent scale
	ExpScale float64 // step ① output scale
	InvScale float64 // step ② output scale (also the final denominator)
	MaxIn    int64   // |logit| bound (for the range checks)
	Classes  int
}

// DefaultSoftmaxConfig sizes the demo for the engine's plaintext modulus.
func (e *Engine) DefaultSoftmaxConfig(classes int) SoftmaxConfig {
	// Keep exp values small enough that their sum stays below t/2, and
	// the final products below t/2 as well.
	half := float64(e.P.T) / 2
	expScale := (half - 16) / (math.E * math.E * float64(classes))
	if expScale > 64 {
		expScale = 64
	}
	return SoftmaxConfig{
		InScale:  0.25,
		ExpScale: expScale,
		InvScale: half - 16,
		MaxIn:    8,
		Classes:  classes,
	}
}

// SoftmaxEncrypted runs the paper's softmax decomposition fully under
// encryption on the given logits and returns the recovered probability
// estimates. It demonstrates the "Softmax alike" path of Section 3.2.3:
// two functional bootstrappings plus one ciphertext-ciphertext
// multiplication.
func (e *Engine) SoftmaxEncrypted(logits []int64, cfg SoftmaxConfig) ([]float64, error) {
	if len(logits) != cfg.Classes {
		return nil, fmt.Errorf("core: %d logits for %d classes", len(logits), cfg.Classes)
	}
	if cfg.Classes > e.P.LWEDim {
		return nil, fmt.Errorf("core: too many classes for one packing group")
	}
	for _, v := range logits {
		if v > cfg.MaxIn || v < -cfg.MaxIn {
			return nil, fmt.Errorf("core: logit %d outside ±%d", v, cfg.MaxIn)
		}
	}

	expFn := func(x int64) int64 {
		if x > cfg.MaxIn {
			x = cfg.MaxIn
		}
		if x < -cfg.MaxIn {
			x = -cfg.MaxIn
		}
		return int64(math.Round(math.Exp(float64(x)*cfg.InScale) * cfg.ExpScale))
	}
	maxSum := int64(float64(cfg.Classes) * math.Exp(float64(cfg.MaxIn)*cfg.InScale) * cfg.ExpScale)
	if maxSum >= int64(e.P.T/2) {
		return nil, fmt.Errorf("core: exp sum bound %d exceeds t/2", maxSum)
	}
	invFn := func(y int64) int64 {
		if y < 1 {
			y = 1
		}
		return int64(math.Round(cfg.InvScale / float64(y)))
	}

	// Encrypt the logits as trivial LWE values (the client-side input);
	// in the full pipeline these arrive as extracted accumulators.
	tm := e.Ctx.TMod
	in := make([]lwe.Ciphertext, cfg.Classes)
	for i, v := range logits {
		ct := e.zeroLWE()
		ct.B = tm.ReduceInt64(v)
		in[i] = ct
	}

	// The softmax pipeline runs on the engine's top-level worker; its
	// pack/FBS stages fan out internally.
	w0 := e.w0
	defer e.flushStats()

	// Step ①: exp LUT over the packed logits, then back to LWE.
	expLUT, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, expFn))
	if err != nil {
		return nil, err
	}
	exps, err := w0.batchLUT(in, expLUT)
	if err != nil {
		return nil, err
	}

	// Step ②: homomorphic sum, then the inverse LUT on the replicated
	// sum so the division can happen slot-wise.
	sum := e.zeroLWE()
	for _, ct := range exps {
		sum = e.addLWE(sum, ct)
		w0.stats.LWEAdds++
	}
	sums := make([]lwe.Ciphertext, cfg.Classes)
	for i := range sums {
		sums[i] = sum
	}
	invLUT, err := fbs.NewEvaluator(e.ctxF, fbs.NewLUT(e.P.T, invFn))
	if err != nil {
		return nil, err
	}
	invCT, err := w0.packFBS(sums, cfg.Classes, invLUT)
	if err != nil {
		return nil, err
	}
	invCT = w0.maskSlots(invCT, e.prefixMask(cfg.Classes))
	expCT, err := w0.packFBS(exps, cfg.Classes, nil)
	if err != nil {
		return nil, err
	}

	// Step ③: CMult — prob_i · InvScale ≈ exp_i · round(InvScale/sum).
	prodCT, err := w0.evP.Mul(expCT, invCT)
	if err != nil {
		return nil, err
	}
	w0.stats.CMult++

	pt := e.dec.Decrypt(prodCT)
	cod := e.cod
	slots := cod.DecodeSlots(pt)
	out := make([]float64, cfg.Classes)
	for i := range out {
		out[i] = float64(slots[i]) / cfg.InvScale
	}
	return out, nil
}

// SoftmaxPlain is the matching plaintext reference (identical integer
// arithmetic) used by tests and callers that need the exact expected
// output of SoftmaxEncrypted.
func SoftmaxPlain(logits []int64, cfg SoftmaxConfig) []float64 {
	exps := make([]int64, len(logits))
	var sum int64
	for i, v := range logits {
		exps[i] = int64(math.Round(math.Exp(float64(v)*cfg.InScale) * cfg.ExpScale))
		sum += exps[i]
	}
	if sum < 1 {
		sum = 1
	}
	inv := int64(math.Round(cfg.InvScale / float64(sum)))
	out := make([]float64, len(logits))
	for i := range out {
		out[i] = float64(exps[i]*inv) / cfg.InvScale
	}
	return out
}
