package bfv

import (
	"slices"
	"testing"

	"athena/internal/ring"
)

// Steady-state evaluator operations must be allocation-free: the engine
// issues them per diagonal, per FBS term, and per limb, so any per-call
// allocation multiplies into GC pressure at inference time. These tests
// enforce the scratch-arena contract with the allocation accountant.
func TestEvaluatorSteadyStateZeroAllocs(t *testing.T) {
	k := newTestKit(t, 7, 4, []int{1})
	vals := randVals(k.ctx.N, 10, 5)
	a := k.enc.Encrypt(k.cod.EncodeSlots(vals))
	b := k.enc.Encrypt(k.cod.EncodeSlots(vals))
	pm := k.cod.LiftToMul(k.cod.EncodeSlots(vals))
	acc := k.enc.Encrypt(k.cod.EncodeSlots(vals))

	if n := testing.AllocsPerRun(100, func() { k.ev.AddInPlace(a, b) }); n != 0 {
		t.Fatalf("AddInPlace allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { k.ev.MulPlainAndAdd(a, pm, acc) }); n != 0 {
		t.Fatalf("MulPlainAndAdd allocates %v times per run, want 0", n)
	}

	out := k.ctx.NewCiphertext()
	pt := k.cod.EncodeSlots(vals)
	if n := testing.AllocsPerRun(100, func() { k.ev.MulPlainInto(a, pm, out) }); n != 0 {
		t.Fatalf("MulPlainInto allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { k.ev.AddPlainInPlace(acc, pt) }); n != 0 {
		t.Fatalf("AddPlainInPlace allocates %v times per run, want 0", n)
	}
	// The lazy plaintext sums, once their row headers and lift rows are
	// sized.
	cts, pms, pts := []*Ciphertext{a, b, acc}, []*PlaintextMul{pm, pm, pm}, []*Plaintext{pt, pt, pt}
	k.ev.MulPlainSumLiftInto(cts, pts, out)
	if n := testing.AllocsPerRun(100, func() {
		k.ev.MulPlainSumInto(cts, pms, out)
		k.ev.MulPlainSumLiftInto(cts, pts, out)
	}); n != 0 {
		t.Fatalf("MulPlainSumInto and MulPlainSumLiftInto allocate %v times per run, want 0", n)
	}
	// A one-shot multiplier encoded and lifted into caller-owned staging,
	// as the engine's workers stage masks, kernels and biases.
	if n := testing.AllocsPerRun(100, func() {
		k.cod.EncodeCoeffsInto(vals[:k.ctx.N/2], pt)
		k.cod.EncodeSlotsInto(vals, pt)
		k.cod.LiftToMulInto(pt, pm)
	}); n != 0 {
		t.Fatalf("EncodeCoeffsInto, EncodeSlotsInto and LiftToMulInto allocate %v times per run, want 0", n)
	}
	// EncodeCoeffsInto clears what a longer encoding left behind.
	k.cod.EncodeCoeffsInto([]int64{1, -1}, pt)
	if want := k.cod.EncodeCoeffs([]int64{1, -1}); !slices.Equal(pt.Coeffs, want.Coeffs) {
		t.Fatal("EncodeCoeffsInto differs from EncodeCoeffs over a used plaintext")
	}
	// Warm the automorphism scratch and permutation cache, then demand
	// the steady state stays clean for both cached Galois elements.
	g := ring.GaloisElementForRotation(k.ctx.N, 1)
	if err := k.ev.AutomorphismInto(a, g, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.AutomorphismInto(a, g, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AutomorphismInto allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.AutomorphismInto(a, 1, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AutomorphismInto(g=1) allocates %v times per run, want 0", n)
	}
	// The three steps of a product, as fbs drives them: once the tensor
	// and keyswitch scratch is warm, the whole CMult, seven base changes
	// included, runs out of the arena.
	opA, opB, sum := k.ctx.NewOperand(), k.ctx.NewOperand(), k.ctx.NewAccumulator()
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.ExtendInto(a, opA); err != nil {
			t.Fatal(err)
		}
		if err := k.ev.ExtendInto(b, opB); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ExtendInto allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sum.Reset()
		for i := 0; i < 3; i++ {
			if err := k.ev.Accumulate(opA, opB, sum); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("Accumulate allocates %v times per run, want 0", n)
	}
	part := k.ctx.NewAccumulator()
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.Accumulate(opA, opB, part); err != nil {
			t.Fatal(err)
		}
		if err := k.ev.AddAccumulator(part, sum); err != nil {
			t.Fatal(err)
		}
		if err := k.ev.FinishInto(sum, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AddAccumulator + FinishInto allocate %v times per run, want 0", n)
	}
	// A scalar-sum matrix, warm: weights, tile and row headers are sized.
	cts, ks, outs := []*Ciphertext{a, b, acc}, [][]uint64{{1, 2, 3}, {4, 0, 65536}, {7, 8, 9}}, []*Ciphertext{out, k.ctx.NewCiphertext(), k.ctx.NewCiphertext()}
	if err := k.ev.MulScalarSums(cts, ks, outs); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.MulScalarSums(cts, ks, outs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MulScalarSums allocates %v times per run, want 0", n)
	}
}
