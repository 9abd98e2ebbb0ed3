package bfv

import (
	"fmt"

	"athena/internal/ring"
	"athena/internal/rns"
)

// Evaluator performs homomorphic operations. It owns a scratch arena of
// reusable polynomial temporaries (lazily allocated, retained across
// calls), so steady-state operations allocate only their results. That
// makes an Evaluator single-goroutine state: to fan out across
// goroutines, give each its own ShallowCopy, which shares the immutable
// context and keys but not the scratch.
type Evaluator struct {
	ctx  *Context
	keys *KeySet
	sc   *evalScratch
}

// evalScratch holds the reusable temporaries behind Mul, Automorphism,
// keyswitching, and plain addition. Everything is lazily allocated on
// first use and sized by the owning context, so an evaluator used only
// for cheap operations never pays for the tensor-product arena.
type evalScratch struct {
	// extend and finish (mul.go): coefficient-domain staging over Q, the
	// rescaled value over B, the degree-2 output term over Q, and the
	// staging of the rns kernels.
	cq  ring.Poly
	sb  ring.Poly
	d2  ring.Poly
	rns *rns.Scratch
	// MulInto: its two operands and its one-term accumulator.
	opA, opB *Operand
	acc      *Accumulator
	// keyswitch: the current digit and the two accumulators.
	digit    ring.Poly
	ks0, ks1 ring.Poly
	// automorphism: coefficient-domain inputs and permuted outputs.
	aq [4]ring.Poly
	// plain addition: the Δ·m lift.
	dm ring.Poly
	// MulScalarSums: the weight matrix of the current limb, the packed
	// tile, and the row headers handed to ring.
	sumW, sumTile    []uint64
	sumRows, sumOuts [][]uint64
	sumWRows         [][]uint64
	// cached automorphism permutation tables, keyed by Galois element.
	autoIdx map[uint64]*autoTable

	enc *Encoder
}

type autoTable struct {
	dst []int
	neg []bool
}

// NewEvaluator creates an evaluator. keys may be nil when only key-free
// operations (add, plain/scalar multiply) are needed.
func NewEvaluator(ctx *Context, keys *KeySet) *Evaluator {
	return &Evaluator{ctx: ctx, keys: keys, sc: &evalScratch{}}
}

// Keys returns the evaluator's key set (read-only; shared, not copied).
func (ev *Evaluator) Keys() *KeySet { return ev.keys }

// ShallowCopy returns an evaluator sharing ev's context and keys but
// owning a fresh scratch arena, for use from another goroutine.
func (ev *Evaluator) ShallowCopy() *Evaluator {
	return &Evaluator{ctx: ev.ctx, keys: ev.keys, sc: &evalScratch{}}
}

// ksScratch returns the keyswitch arena, allocating it on first use.
func (ev *Evaluator) ksScratch() *evalScratch {
	sc := ev.sc
	if sc.digit.Level() == 0 {
		sc.digit = ev.ctx.RingQ.NewPoly() //lint:allow noalloc one-time lazy arena fill, reused across calls
		sc.ks0 = ev.ctx.RingQ.NewPoly()   //lint:allow noalloc one-time lazy arena fill, reused across calls
		sc.ks1 = ev.ctx.RingQ.NewPoly()   //lint:allow noalloc one-time lazy arena fill, reused across calls
	}
	return sc
}

// autoIndex returns the cached permutation table for Galois element g.
func (ev *Evaluator) autoIndex(g uint64) *autoTable {
	sc := ev.sc
	if sc.autoIdx == nil {
		sc.autoIdx = make(map[uint64]*autoTable) //lint:allow noalloc one-time cache init
	}
	t := sc.autoIdx[g]
	if t == nil {
		dst, neg := ring.AutomorphismIndex(ev.ctx.N, g) //lint:allow noalloc table built on first use of g; steady state is a map hit
		t = &autoTable{dst: dst, neg: neg}              //lint:allow noalloc table built on first use of g; steady state is a map hit
		sc.autoIdx[g] = t                               //lint:allow noalloc table built on first use of g; steady state is a map hit
	}
	return t
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	out := ev.ctx.NewCiphertext()
	ev.ctx.RingQ.Add(a.C0, b.C0, out.C0)
	ev.ctx.RingQ.Add(a.C1, b.C1, out.C1)
	return out
}

// AddInPlace sets a += b.
//
//lint:noalloc
func (ev *Evaluator) AddInPlace(a, b *Ciphertext) {
	ev.ctx.RingQ.Add(a.C0, b.C0, a.C0)
	ev.ctx.RingQ.Add(a.C1, b.C1, a.C1)
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	out := ev.ctx.NewCiphertext()
	ev.ctx.RingQ.Sub(a.C0, b.C0, out.C0)
	ev.ctx.RingQ.Sub(a.C1, b.C1, out.C1)
	return out
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	out := ev.ctx.NewCiphertext()
	ev.ctx.RingQ.Neg(a.C0, out.C0)
	ev.ctx.RingQ.Neg(a.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (the plaintext is embedded as Δ·m).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := ct.Clone()
	ev.AddPlainInPlace(out, pt)
	return out
}

// AddPlainInPlace sets ct += pt (the plaintext is embedded as Δ·m)
// without allocating: the lift lands in evaluator scratch.
//
//lint:noalloc
func (ev *Evaluator) AddPlainInPlace(ct *Ciphertext, pt *Plaintext) {
	sc := ev.sc
	if sc.enc == nil {
		sc.enc = NewEncoder(ev.ctx)    //lint:allow noalloc one-time lazy encoder init, reused across calls
		sc.dm = ev.ctx.RingQ.NewPoly() //lint:allow noalloc one-time lazy arena fill, reused across calls
	}
	sc.enc.LiftToDeltaInto(pt, sc.dm)
	ev.ctx.RingQ.Add(ct.C0, sc.dm, ct.C0)
}

// MulPlain returns ct ⊗ pm, the plaintext-ciphertext product (PMult in
// the paper's notation). The plaintext must have been lifted with
// Encoder.LiftToMul. When pm carries its Shoup companion (compiled,
// reused multipliers), the product runs the elementwise Shoup kernel.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pm *PlaintextMul) *Ciphertext {
	out := ev.ctx.NewCiphertext()
	ev.MulPlainInto(ct, pm, out)
	return out
}

// MulPlainInto sets out = ct ⊗ pm without allocating. out must not
// alias ct (it may alias pm only through distinct polynomials).
//
//lint:noalloc
func (ev *Evaluator) MulPlainInto(ct *Ciphertext, pm *PlaintextMul, out *Ciphertext) {
	if pm.Shoup.Level() != 0 {
		ev.ctx.RingQ.MulCoeffsShoup(ct.C0, pm.Value, pm.Shoup, out.C0)
		ev.ctx.RingQ.MulCoeffsShoup(ct.C1, pm.Value, pm.Shoup, out.C1)
		return
	}
	ev.ctx.RingQ.MulCoeffs(ct.C0, pm.Value, out.C0)
	ev.ctx.RingQ.MulCoeffs(ct.C1, pm.Value, out.C1)
}

// MulPlainAndAdd sets acc += ct ⊗ pm without allocating.
//
//lint:noalloc
func (ev *Evaluator) MulPlainAndAdd(ct *Ciphertext, pm *PlaintextMul, acc *Ciphertext) {
	if pm.Shoup.Level() != 0 {
		ev.ctx.RingQ.MulCoeffsShoupAndAdd(ct.C0, pm.Value, pm.Shoup, acc.C0)
		ev.ctx.RingQ.MulCoeffsShoupAndAdd(ct.C1, pm.Value, pm.Shoup, acc.C1)
		return
	}
	ev.ctx.RingQ.MulCoeffsAndAdd(ct.C0, pm.Value, acc.C0)
	ev.ctx.RingQ.MulCoeffsAndAdd(ct.C1, pm.Value, acc.C1)
}

// MulPlainFixedInto sets out = ct ⊗ pm for a fixed ciphertext with
// precomputed companions cs (Context.NewCiphertextShoup): the roles are
// swapped versus MulPlain's fast path, covering products where the
// ciphertext is the immutable operand and the plaintext multiplier
// changes per call (the packer's diagonal products against its
// baby-step keys). out must not alias ct.
//
//lint:noalloc
func (ev *Evaluator) MulPlainFixedInto(ct *Ciphertext, cs *CiphertextShoup, pm *PlaintextMul, out *Ciphertext) {
	ev.ctx.RingQ.MulCoeffsShoup(pm.Value, ct.C0, cs.C0S, out.C0)
	ev.ctx.RingQ.MulCoeffsShoup(pm.Value, ct.C1, cs.C1S, out.C1)
}

// MulPlainFixedAndAdd sets acc += ct ⊗ pm for a fixed ciphertext with
// precomputed companions cs.
//
//lint:noalloc
func (ev *Evaluator) MulPlainFixedAndAdd(ct *Ciphertext, cs *CiphertextShoup, pm *PlaintextMul, acc *Ciphertext) {
	ev.ctx.RingQ.MulCoeffsShoupAndAdd(pm.Value, ct.C0, cs.C0S, acc.C0)
	ev.ctx.RingQ.MulCoeffsShoupAndAdd(pm.Value, ct.C1, cs.C1S, acc.C1)
}

// MulScalar returns ct · k for the scalar k ∈ Z_t, using the centered
// representative of k to minimize noise growth (SMult).
func (ev *Evaluator) MulScalar(ct *Ciphertext, k uint64) *Ciphertext {
	c := ev.ctx.TMod.Centered(ev.ctx.TMod.Reduce(k))
	out := ev.ctx.NewCiphertext()
	rq := ev.ctx.RingQ
	for i := range rq.Moduli {
		m := rq.Moduli[i]
		kv := m.ReduceInt64(c)
		sh := m.ShoupPrecomp(kv)
		m.MulShoupVec(ct.C0.Coeffs[i], kv, sh, out.C0.Coeffs[i])
		m.MulShoupVec(ct.C1.Coeffs[i], kv, sh, out.C1.Coeffs[i])
	}
	return out
}

// sumTileWords caps the packed tile of MulScalarSums at 512 KB, to stay
// in a core's L2 while the kernel passes over it. The wider the tile the
// longer the run each row is read in — a whole 4 KB limb at N = 512 with
// the 110 rows of t = 12289, which measured 0.73 ns per term against 1.0
// with 32 KB tiles, whose 37-column runs leave the prefetcher nothing.
const sumTileWords = 65536

// sumScratch sizes the MulScalarSums staging for g sums of k terms in
// tiles of cols columns; every buffer grows to the largest shape seen
// and is reused.
//
//lint:noalloc
func (ev *Evaluator) sumScratch(g, k, cols int) *evalScratch {
	sc := ev.sc
	if cap(sc.sumW) < g*k {
		//lint:prealloc sized once to the largest weight matrix, then reused across calls
		sc.sumW = make([]uint64, g*k)
	}
	if cap(sc.sumTile) < cols*k {
		//lint:prealloc sized once to the largest tile, then reused across calls
		sc.sumTile = make([]uint64, cols*k)
	}
	if cap(sc.sumRows) < k {
		//lint:prealloc sized once to the largest term count, then reused across calls
		sc.sumRows = make([][]uint64, k)
	}
	if cap(sc.sumOuts) < g {
		//lint:prealloc sized once to the largest output count, then reused across calls
		sc.sumOuts, sc.sumWRows = make([][]uint64, g), make([][]uint64, g)
	}
	sc.sumW, sc.sumTile = sc.sumW[:g*k], sc.sumTile[:cols*k]
	sc.sumRows, sc.sumOuts, sc.sumWRows = sc.sumRows[:k], sc.sumOuts[:g], sc.sumWRows[:g]
	return sc
}

// MulScalarSums sets outs[g] = Σ_k ks[g][k]·cts[k] for scalars ks[g][k] ∈
// Z_t (centered, as in MulScalar; every ks[g] has len(cts) entries): the
// product of the scalar matrix ks with the matrix whose rows are the
// ciphertexts, the way the paper's FRU array streams the FBS baby-step
// inner sums (Fig. 7). Per limb the weights are reduced once; per tile of
// columns the rows are packed once (ring.PackTile) and every output is
// one ring.MulSumTile column sum, so a coefficient of cts is read once
// for all of outs and each output coefficient is reduced and stored
// once. Sums modulo q are exact: the result is limb for limb what
// MulScalar and Add give. No outs entry may alias a cts entry.
//
//lint:noalloc
func (ev *Evaluator) MulScalarSums(cts []*Ciphertext, ks [][]uint64, outs []*Ciphertext) error {
	for _, ct := range cts {
		if err := ev.checkLevel(ct); err != nil {
			return err
		}
	}
	for _, ct := range outs {
		if err := ev.checkLevel(ct); err != nil {
			return err
		}
	}
	if len(outs) == 0 {
		return nil
	}
	kn, n := len(cts), ev.ctx.N
	cols := min(n, max(sumTileWords/max(kn, 1), 1))
	sc := ev.sumScratch(len(outs), kn, cols)
	tm := ev.ctx.TMod
	for g := range outs {
		sc.sumWRows[g] = sc.sumW[g*kn : (g+1)*kn]
	}
	for i, m := range ev.ctx.RingQ.Moduli {
		for g, row := range sc.sumWRows {
			for k, v := range ks[g][:kn] {
				row[k] = m.ReduceInt64(tm.Centered(tm.Reduce(v)))
			}
		}
		for h := 0; h < 2; h++ {
			for k, ct := range cts {
				sc.sumRows[k] = ct.half(h).Coeffs[i]
			}
			for j0 := 0; j0 < n; j0 += cols {
				j1 := min(j0+cols, n)
				ring.PackTile(sc.sumRows, j0, j1-j0, sc.sumTile)
				for g, out := range outs {
					sc.sumOuts[g] = out.half(h).Coeffs[i][j0:j1]
				}
				m.MulSumTile(sc.sumTile, sc.sumWRows, sc.sumOuts)
			}
		}
	}
	return nil
}

// keySwitchCoeff applies a switching key to a coefficient-domain
// polynomial p, returning the NTT-domain pair (ks0, ks1) with
// ks0 + ks1·s ≈ p·target. It reads the key's first ctx.Level() digits at
// their first ctx.Level() limbs, so the key's level must be at least the
// context's (callers check). The returned polynomials are evaluator
// scratch: callers must consume them before the next keyswitching call.
//
//lint:noalloc
func (ev *Evaluator) keySwitchCoeff(p ring.Poly, swk *SwitchingKey) (ring.Poly, ring.Poly) {
	ctx := ev.ctx
	rq := ctx.RingQ
	sc := ev.ksScratch()
	d, ks0, ks1 := sc.digit, sc.ks0, sc.ks1
	// Generated and deserialized keys carry Shoup companions; keys built
	// by hand without them fall back to the Barrett product.
	useShoup := swk.BShoup != nil
	for i := 0; i < ctx.BasisQ.Len(); i++ {
		// ksDigitInv is QiHatInv at the chain's own level; reduced-level
		// contexts carry the correction for full-chain key components.
		ctx.BasisQ.DecomposeDigitScaledInto(p, i, ctx.ksDigitInv[i], ctx.ksDigitInvShoup[i], d)
		rq.NTT(d)
		switch {
		case useShoup && i == 0:
			rq.MulCoeffsShoup(d, swk.B[i], swk.BShoup[i], ks0)
			rq.MulCoeffsShoup(d, swk.A[i], swk.AShoup[i], ks1)
		case useShoup:
			rq.MulCoeffsShoupAndAdd(d, swk.B[i], swk.BShoup[i], ks0)
			rq.MulCoeffsShoupAndAdd(d, swk.A[i], swk.AShoup[i], ks1)
		case i == 0:
			rq.MulCoeffs(d, swk.B[i], ks0)
			rq.MulCoeffs(d, swk.A[i], ks1)
		default:
			rq.MulCoeffsAndAdd(d, swk.B[i], ks0)
			rq.MulCoeffsAndAdd(d, swk.A[i], ks1)
		}
	}
	return ks0, ks1
}

// Automorphism applies X -> X^g to the ciphertext and keyswitches back to
// the original secret. Requires the Galois key for g.
func (ev *Evaluator) Automorphism(ct *Ciphertext, g uint64) (*Ciphertext, error) {
	out := ev.ctx.NewCiphertext()
	if err := ev.AutomorphismInto(ct, g, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AutomorphismInto is Automorphism writing into a caller-provided
// ciphertext; out may alias ct (ct is consumed into scratch before out
// is written). The permutation table for g is cached after first use,
// so steady-state calls do not allocate.
//
//lint:noalloc
func (ev *Evaluator) AutomorphismInto(ct *Ciphertext, g uint64, out *Ciphertext) error {
	if g == 1 {
		ct.CopyTo(out)
		return nil
	}
	if ev.keys == nil {
		return fmt.Errorf("bfv: Automorphism requires galois keys")
	}
	gk, err := ev.keys.GaloisKeyFor(g)
	if err != nil {
		return err
	}
	ctx := ev.ctx
	if l := gk.Level(); l < ctx.Level() {
		return fmt.Errorf("bfv: galois key for element %d at level %d, automorphism at level %d", g, l, ctx.Level())
	}
	rq := ctx.RingQ

	sc := ev.sc
	if sc.aq[0].Level() == 0 {
		for i := range sc.aq {
			sc.aq[i] = rq.NewPoly() //lint:allow noalloc one-time lazy arena fill, reused across calls
		}
	}
	c0, c1, p0, p1 := sc.aq[0], sc.aq[1], sc.aq[2], sc.aq[3]
	ct.C0.CopyTo(c0)
	ct.C1.CopyTo(c1)
	rq.INTT(c0)
	rq.INTT(c1)
	t := ev.autoIndex(g)
	rq.AutomorphismWithIndex(c0, t.dst, t.neg, p0)
	rq.AutomorphismWithIndex(c1, t.dst, t.neg, p1)

	// φ(ct) decrypts under φ(s); switch the C1 part back to s.
	ks0, ks1 := ev.keySwitchCoeff(p1, &gk.SwitchingKey)
	rq.NTT(p0)
	rq.Add(p0, ks0, out.C0)
	ks1.CopyTo(out.C1)
	return nil
}

// RotateRows rotates both slot rows left by k (slot i receives the value
// previously at slot i+k within each row of N/2). Requires the Galois key
// for 5^k.
func (ev *Evaluator) RotateRows(ct *Ciphertext, k int) (*Ciphertext, error) {
	g := ring.GaloisElementForRotation(ev.ctx.N, k)
	return ev.Automorphism(ct, g)
}

// RotateRowsInto is RotateRows writing into a caller-provided
// ciphertext; out may alias ct. Requires the Galois key for 5^k.
//
//lint:noalloc
func (ev *Evaluator) RotateRowsInto(ct *Ciphertext, k int, out *Ciphertext) error {
	g := ring.GaloisElementForRotation(ev.ctx.N, k)
	return ev.AutomorphismInto(ct, g, out)
}

// RotationGaloisElements returns the Galois elements needed to rotate by
// each k in ks (deduplicated), for key generation.
func RotationGaloisElements(ctx *Context, ks []int) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, k := range ks {
		g := ring.GaloisElementForRotation(ctx.N, k)
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}
