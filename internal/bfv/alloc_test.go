package bfv

import "testing"

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
	// Warm the automorphism scratch and permutation cache, then demand
	// the steady state stays clean for both cached Galois elements.
	if err := k.ev.RotateRowsInto(a, 1, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.RotateRowsInto(a, 1, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RotateRowsInto allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.AutomorphismInto(a, 1, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AutomorphismInto(g=1) allocates %v times per run, want 0", n)
	}
	// Warm the tensor and keyswitch scratch; the whole CMult, seven base
	// changes included, then runs out of the arena.
	if err := k.ev.MulInto(a, b, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.ev.MulInto(a, b, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MulInto allocates %v times per run, want 0", n)
	}
	// The three steps of a product on their own, as fbs drives them.
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

// TestIntoOpsMatchAllocatingOps pins the zero-alloc variants to their
// allocating counterparts: same ciphertexts, bit for bit.
func TestIntoOpsMatchAllocatingOps(t *testing.T) {
	k := newTestKit(t, 7, 4, []int{1})
	vals := randVals(k.ctx.N, 10, 9)
	ct := k.enc.Encrypt(k.cod.EncodeSlots(vals))
	pm := k.cod.LiftToMul(k.cod.EncodeSlots(vals))
	pt := k.cod.EncodeSlots(vals)

	ctEq := func(name string, a, b *Ciphertext) {
		t.Helper()
		if !a.C0.Equal(b.C0) || !a.C1.Equal(b.C1) {
			t.Fatalf("%s: Into variant disagrees with allocating variant", name)
		}
	}

	out := k.ctx.NewCiphertext()
	k.ev.MulPlainInto(ct, pm, out)
	ctEq("MulPlain", out, k.ev.MulPlain(ct, pm))

	inPlace := ct.Clone()
	k.ev.AddPlainInPlace(inPlace, pt)
	ctEq("AddPlain", inPlace, k.ev.AddPlain(ct, pt))

	if err := k.ev.RotateRowsInto(ct, 1, out); err != nil {
		t.Fatal(err)
	}
	rot, err := k.ev.RotateRows(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctEq("RotateRows", out, rot)

	// out may alias ct: the operand is staged into scratch first.
	alias := ct.Clone()
	if err := k.ev.RotateRowsInto(alias, 1, alias); err != nil {
		t.Fatal(err)
	}
	ctEq("RotateRows aliased", alias, rot)

	other := k.enc.Encrypt(k.cod.EncodeSlots(randVals(k.ctx.N, 10, 10)))
	prod, err := k.ev.Mul(ct, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ev.MulInto(ct, other, out); err != nil {
		t.Fatal(err)
	}
	ctEq("Mul", out, prod)
	// out may alias either operand, or both in a squaring.
	alias = ct.Clone()
	if err := k.ev.MulInto(alias, other, alias); err != nil {
		t.Fatal(err)
	}
	ctEq("Mul, out == a", alias, prod)
	alias = other.Clone()
	if err := k.ev.MulInto(ct, alias, alias); err != nil {
		t.Fatal(err)
	}
	ctEq("Mul, out == b", alias, prod)
	sq, err := k.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	alias = ct.Clone()
	if err := k.ev.MulInto(alias, alias, alias); err != nil {
		t.Fatal(err)
	}
	ctEq("Mul, out == a == b", alias, sq)
}
