package pack

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/ring"
)

// Transform is an arbitrary Z_t-linear map on the plaintext ring,
// compiled into the Galois-sum form  M(m) = Σ_g p_g · σ_g(m)  and
// evaluated homomorphically with BSGS grouping of the Galois group
// {±5^k}. Every Z_t-linear map on Z_t[X]/(X^N+1) admits this form
// because the Galois group acts simply transitively on the N evaluation
// points (the decomposition in compile() is exact, not approximate).
type Transform struct {
	ctx *bfv.Context

	// terms[a][idx] is the plaintext multiplier for giant step a and baby
	// index idx (idx < len(babyEls): even = +5^b, odd = -5^b); nil when
	// the multiplier polynomial is identically zero.
	terms [][]*bfv.PlaintextMul

	babyEls []uint64 // galois elements 5^b and (2N-1)·5^b
	giantEl uint64   // galois element 5^B: the giant steps' Horner rotation
}

// TransformScratch is the staging of one ApplyInto caller: the baby-step
// automorphisms of the input (nil where no giant step reads one), one
// giant step's terms and the babies they multiply, and one giant step's
// inner sum. The zero value is ready: the staging is sized on first use
// by the transform it runs and reused while that stays the same. A
// single TransformScratch may not be used concurrently.
type TransformScratch struct {
	tr     *Transform
	babies []*bfv.Ciphertext
	cts    []*bfv.Ciphertext
	pms    []*bfv.PlaintextMul
	inner  *bfv.Ciphertext
}

// fit sizes the staging for tr.
func (sc *TransformScratch) fit(tr *Transform) {
	if sc.tr == tr {
		return
	}
	n := len(tr.babyEls)
	*sc = TransformScratch{tr: tr, babies: make([]*bfv.Ciphertext, n), cts: make([]*bfv.Ciphertext, n), pms: make([]*bfv.PlaintextMul, n), inner: tr.ctx.NewCiphertext()}
	for _, terms := range tr.terms {
		for idx, pm := range terms {
			if pm != nil && sc.babies[idx] == nil {
				sc.babies[idx] = tr.ctx.NewCiphertext()
			}
		}
	}
}

// TransformGaloisElements returns the Galois elements a Transform over
// a ring of degree n reads, whatever its matrix: the baby steps 5^b and
// their conjugates (2N−1)·5^b for b < B, then the giant steps' one
// rotation 5^B when there is more than one giant step, with B =
// BabySteps(n/2). Key generation reads the list without compiling a
// transform; it may hold the identity, which DedupGalois drops.
func TransformGaloisElements(n int) []uint64 {
	bc := BabySteps(n / 2)
	els := make([]uint64, 0, 2*bc+1)
	conj := ring.GaloisElementConjugate(n)
	for b := 0; b < bc; b++ {
		g := ring.GaloisElementForRotation(n, b)
		els = append(els, g, ring.GaloisCompose(n, g, conj))
	}
	if n/2 > bc {
		els = append(els, ring.GaloisElementForRotation(n, bc))
	}
	return els
}

// DedupGalois merges Galois element lists into one, dropping duplicates
// and the identity; the shared helper behind key-generation element sets.
func DedupGalois(lists ...[]uint64) []uint64 {
	seen := map[uint64]bool{1: true}
	var out []uint64
	for _, l := range lists {
		for _, g := range l {
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// evalDomain captures the plaintext-ring evaluation structure mod t.
type evalDomain struct {
	rt    *ring.Ring // plaintext ring (single limb t)
	tm    ring.Modulus
	n     int
	exps  []uint64 // exps[p]: NTT position p evaluates at ζ^exps[p]
	posOf []int    // inverse of exps over odd exponents (indexed by exponent)
}

func newEvalDomain(ctx *bfv.Context) (*evalDomain, error) {
	if !ctx.Batching() {
		return nil, fmt.Errorf("pack: parameters do not support batching")
	}
	rt := ctx.RingT
	n := rt.N
	d := &evalDomain{rt: rt, tm: rt.Moduli[0], n: n}

	// Probe the NTT with the monomial X: position p then holds ζ^exps[p].
	probe := rt.NewPoly()
	probe.Coeffs[0][1] = 1
	rt.NTT(probe)

	// Discrete-log table over the 2N-th roots of unity.
	zeta := ring.RootOfUnity(d.tm.Q, uint64(2*n))
	dlog := make(map[uint64]int, 2*n)
	v := uint64(1)
	for k := 0; k < 2*n; k++ {
		dlog[v] = k
		v = d.tm.Mul(v, zeta)
	}
	d.exps = make([]uint64, n)
	d.posOf = make([]int, 2*n)
	for i := range d.posOf {
		d.posOf[i] = -1
	}
	for p := 0; p < n; p++ {
		k, ok := dlog[probe.Coeffs[0][p]]
		if !ok {
			return nil, fmt.Errorf("pack: NTT position %d does not evaluate at a 2N-th root", p)
		}
		d.exps[p] = uint64(k)
		d.posOf[k] = p
	}
	return d, nil
}

// perm returns the eval-position permutation of σ_g: position i of
// σ_g(m) holds the value of m at position perm[i].
func (d *evalDomain) perm(g uint64) []int {
	out := make([]int, d.n)
	for i := 0; i < d.n; i++ {
		out[i] = d.posOf[ring.GaloisCompose(d.n, d.exps[i], g)]
	}
	return out
}

// CompileTransform builds the homomorphic evaluation plan for the map
// out = M·in on plaintext coefficient vectors (M is N×N over Z_t,
// row-major: out[i] = Σ_j M[i][j]·in[j]).
func CompileTransform(ctx *bfv.Context, m [][]uint64) (*Transform, error) {
	d, err := newEvalDomain(ctx)
	if err != nil {
		return nil, err
	}
	n := d.n
	if len(m) != n {
		return nil, fmt.Errorf("pack: matrix has %d rows, want %d", len(m), n)
	}
	tm := d.tm
	rt := d.rt

	// T = E·M·E^{-1}, using (i) columns of E·M are NTTs of M's columns
	// and (ii) E^{-T} = (1/N)·P·E with P the inverse-point pairing, so
	// each row of T is (1/N)·P·NTT(row of E·M).
	t := make([][]uint64, n)
	for i := range t {
		t[i] = make([]uint64, n)
		if len(m[i]) != n {
			return nil, fmt.Errorf("pack: matrix row %d has %d entries, want %d", i, len(m[i]), n)
		}
	}
	col := rt.NewPoly()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col.Coeffs[0][i] = tm.Reduce(m[i][j])
		}
		rt.NTT(col)
		for i := 0; i < n; i++ {
			t[i][j] = col.Coeffs[0][i]
		}
	}
	nInv := tm.Inv(uint64(n))
	twoN := uint64(2 * n)
	pair := make([]int, n) // position of the inverse evaluation point
	for i := 0; i < n; i++ {
		pair[i] = d.posOf[(twoN-d.exps[i])&(twoN-1)] // 2N is a power of two
	}
	row := rt.NewPoly()
	scratch := make([]uint64, n)
	for i := 0; i < n; i++ {
		copy(row.Coeffs[0], t[i])
		rt.NTT(row)
		for k := 0; k < n; k++ {
			scratch[k] = tm.Mul(row.Coeffs[0][pair[k]], nInv)
		}
		copy(t[i], scratch)
	}

	// Extract the diagonal D_g for every group element g = ε·5^k and
	// interpolate it back to the multiplier polynomial p_g.
	cod := bfv.NewEncoder(ctx)
	half := n / 2
	bc := BabySteps(half)
	gc := half / bc
	els := TransformGaloisElements(n)
	tr := &Transform{ctx: ctx, terms: make([][]*bfv.PlaintextMul, gc), babyEls: els[:2*bc]}
	if gc > 1 {
		tr.giantEl = els[2*bc]
	}
	conj := ring.GaloisElementConjugate(n)

	dg := rt.NewPoly()
	pPrime := rt.NewPoly()
	pt := ctx.NewPlaintext()
	for a := 0; a < gc; a++ {
		tr.terms[a] = make([]*bfv.PlaintextMul, 2*bc)
		gGiantInv := ring.GaloisElementForRotation(n, -a*bc)
		for b := 0; b < bc; b++ {
			for e := 0; e < 2; e++ {
				g := ring.GaloisElementForRotation(n, a*bc+b)
				if e == 1 {
					g = ring.GaloisCompose(n, g, conj)
				}
				pg := d.perm(g)
				nonzero := false
				for i := 0; i < n; i++ {
					v := t[i][pg[i]]
					dg.Coeffs[0][i] = v
					if v != 0 {
						nonzero = true
					}
				}
				if !nonzero {
					continue
				}
				rt.INTT(dg) // p_g coefficients
				// Giant pre-rotation: p' = σ_{5^{aB}}^{-1}(p_g).
				if a == 0 {
					dg.CopyTo(pPrime)
				} else {
					rt.Automorphism(dg, gGiantInv, pPrime)
				}
				copy(pt.Coeffs, pPrime.Coeffs[0])
				tr.terms[a][2*b+e] = cod.LiftToMul(pt)
			}
		}
	}
	return tr, nil
}

// GaloisElements returns every Galois element ApplyInto will use, for
// key generation (deduplicated, identity excluded).
func (tr *Transform) GaloisElements() []uint64 {
	return DedupGalois(TransformGaloisElements(tr.ctx.N))
}

// Apply is ApplyInto into a fresh ciphertext on fresh staging. It exists
// for bench/'s S2C probe and goes when that probe moves.
func (tr *Transform) Apply(ev *bfv.Evaluator, ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	out := tr.ctx.NewCiphertext()
	return out, tr.ApplyInto(ev, new(TransformScratch), ct, out)
}

// ApplyInto sets out to the transform of ct, staging the baby-step
// automorphisms and the giant steps' inner sums in sc. The giant steps
// are summed by Horner's rule from the highest one with a term down,
// out ← σ(out) + inner_a with σ the rotation by the baby-step count B,
// so the gc − 1 giant rotations all read σ's one key. The babies keep one
// key each: they are rotated before the diagonals multiply them, and a
// chain of them would have the diagonals amplify every link's keyswitch
// error. out may alias ct: ct is read only while the babies are built.
// Once sc is sized, a call allocates nothing.
//
//lint:noalloc
func (tr *Transform) ApplyInto(ev *bfv.Evaluator, sc *TransformScratch, ct, out *bfv.Ciphertext) error {
	sc.fit(tr) //lint:allow noalloc staging sized on first use of a transform, reused after
	for idx, baby := range sc.babies {
		if baby == nil {
			continue
		}
		if err := ev.AutomorphismInto(ct, tr.babyEls[idx], baby); err != nil {
			return err
		}
	}
	// The highest giant step with a term is summed in out, every lower
	// one in sc.inner and added after out is rotated by σ.
	empty := true
	for a := len(tr.terms) - 1; a >= 0; a-- {
		if !empty {
			if err := ev.AutomorphismInto(out, tr.giantEl, out); err != nil {
				return err
			}
		}
		n := 0
		for idx, pm := range tr.terms[a] {
			if pm != nil {
				sc.cts[n], sc.pms[n] = sc.babies[idx], pm
				n++
			}
		}
		if n == 0 {
			continue
		}
		if empty {
			ev.MulPlainSumInto(sc.cts[:n], sc.pms[:n], out)
			empty = false
			continue
		}
		ev.MulPlainSumInto(sc.cts[:n], sc.pms[:n], sc.inner)
		ev.AddInPlace(out, sc.inner)
	}
	if empty {
		// The zero map.
		for _, p := range [2]ring.Poly{out.C0, out.C1} {
			for _, limb := range p.Coeffs {
				clear(limb)
			}
		}
	}
	return nil
}

// S2CMatrix returns the slot-to-coefficient map: out_coeff[i] = slot_i(in)
// for all N slots. Composed after FBS it returns the activations to the
// coefficient encoding the next linear layer consumes.
func S2CMatrix(ctx *bfv.Context) [][]uint64 {
	d, err := newEvalDomain(ctx)
	if err != nil {
		panic(err)
	}
	n := d.n
	slotIdx := ctx.SlotIndex()
	// slot_i(m) = NTT(m)[slotIdx[i]] = Σ_j E[slotIdx[i]][j]·m_j.
	// Materialize E rows by NTT-ing unit vectors... equivalently E[p][j] =
	// ζ^{exps[p]·j}, which we can compute directly.
	tm := d.tm
	zeta := ring.RootOfUnity(tm.Q, uint64(2*n))
	m := make([][]uint64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]uint64, n)
		base := tm.Pow(zeta, d.exps[slotIdx[i]])
		v := uint64(1)
		for j := 0; j < n; j++ {
			m[i][j] = v
			v = tm.Mul(v, base)
		}
	}
	return m
}

// C2SMatrix returns the coefficient-to-slot map (the inverse of
// S2CMatrix): coefficients of the output equal the plaintext polynomial
// whose slot i holds in_coeff[i].
func C2SMatrix(ctx *bfv.Context) [][]uint64 {
	d, err := newEvalDomain(ctx)
	if err != nil {
		panic(err)
	}
	n := d.n
	rt := d.rt
	slotIdx := ctx.SlotIndex()
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	// Column j of the matrix is INTT(unit at slotIdx[j]).
	col := rt.NewPoly()
	for j := 0; j < n; j++ {
		for i := range col.Coeffs[0] {
			col.Coeffs[0][i] = 0
		}
		col.Coeffs[0][slotIdx[j]] = 1
		rt.INTT(col)
		for i := 0; i < n; i++ {
			m[i][j] = col.Coeffs[0][i]
		}
	}
	return m
}
