// Package pack implements Step ④ and the slot-to-coefficient bridge of
// the Athena framework:
//
//   - Packer homomorphically decrypts a batch of LWE ciphertexts into the
//     slots of one fresh BFV ciphertext at full modulus Q. The LWE secret
//     is encrypted slot-wise under the BFV key (the "packing key"); the
//     plaintext LWE matrix then multiplies it with a Baby-Step Giant-Step
//     (BSGS) diagonal product, exactly the ⟨a, s⟩ + b evaluation the
//     paper describes. Because the output is a fresh encryption under Q,
//     this step *is* the noise refresh (bootstrapping).
//
//   - Transform compiles an arbitrary Z_t-linear map on the plaintext
//     ring into a sum Σ_g p_g·σ_g over Galois automorphisms, evaluated
//     homomorphically with BSGS grouping. The slot-to-coefficient (S2C)
//     and coefficient-to-slot (C2S) transforms are instances.
package pack

import (
	"fmt"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/par"
	"athena/internal/ring"
)

// Packer packs LWE ciphertexts (dimension n, modulus t) into BFV slots.
// The key material (babies, rotIdx) is immutable after construction;
// per-call staging lives in a Scratch, so concurrent PackInto calls are
// safe as long as each caller holds its own Scratch.
type Packer struct {
	ctx *bfv.Context
	n   int
	bs  int // baby-step count (divides n)

	// babies[b] encrypts the LWE secret replicated across the slots and
	// pre-rotated by b: slot i holds s[(i%row + b) mod n]. Pre-encrypting
	// the rotations at key generation removes all baby-step rotations at
	// run time.
	babies []*bfv.Ciphertext

	// rotIdx[a][i] is the slot feeding slot i after the giant-step
	// pre-rotation by -a·bs, computed once at construction so each call
	// builds its diagonals with a single gather instead of re-deriving
	// the row/column permutation per element.
	rotIdx [][]int

	// giantEls[a] is the Galois element of giant step a's rotation of
	// both slot rows by a·bs (giantEls[0] = 1 is never applied).
	giantEls []uint64
}

// Scratch holds the per-call staging of one PackInto caller: the call
// being fanned out, the worker function over it, and the worker lanes of
// the giant-step fan-out. Distinct Scratches over one Packer may run
// concurrently; a single Scratch may not.
type Scratch struct {
	// The call being fanned out: its packer, inputs, output (lane 0's
	// sum) and an error slot per giant step. step reads them through the
	// scratch and is built once, so a fanned-out call costs no closure.
	p    *Packer
	cts  []lwe.Ciphertext
	out  *bfv.Ciphertext
	errs []error
	step func(w, a int)

	// Giant-step fan-out lanes, keyed to the evaluator passed to
	// PackInto and the baby-step count, and reused while both stay the
	// same.
	base  *bfv.Evaluator
	bs    int
	lanes *par.Pool[*packLane]
}

// packLane is one worker of the giant-step fan-out: a ShallowCopy'd
// evaluator, its own diagonal staging (one plaintext per baby step), the
// giant step it is computing, and the sum of the giant steps it has
// computed this call (lane 0 sums into the output instead). After the
// fan-out lane 0 stages the b terms.
type packLane struct {
	ev         *bfv.Evaluator
	cod        *bfv.Encoder
	d          []int64
	pts        []*bfv.Plaintext
	inner, sum *bfv.Ciphertext
	steps      int
}

// NewScratch returns staging state for one concurrent PackInto caller.
// Its lanes are built by the first call. A Scratch is not tied to p: each
// call packs with the packer it is made on.
func (p *Packer) NewScratch() *Scratch {
	sc := &Scratch{errs: make([]error, p.n/p.bs)}
	sc.step = func(w, a int) {
		// Writes errs[a] and the lane it is handed, and lane 0 the output;
		// the call's packer and inputs are only read.
		ln := sc.lanes.Get(w)
		sum := ln.sum
		if w == 0 {
			sum = sc.out
		}
		dst := sum
		if ln.steps > 0 {
			dst = ln.inner
		}
		sc.errs[a] = sc.p.giantStep(ln, sc.cts, a, dst)
		if ln.steps > 0 {
			ln.ev.AddInPlace(sum, ln.inner)
		}
		ln.steps++
	}
	return sc
}

// bind builds the fan-out lanes over ev, an evaluator of ctx, for bs
// baby steps.
func (sc *Scratch) bind(ctx *bfv.Context, ev *bfv.Evaluator, bs int) {
	sc.base, sc.bs = ev, bs
	sc.lanes = par.NewPool(func() *packLane {
		ln := &packLane{
			ev:    ev.ShallowCopy(),
			cod:   bfv.NewEncoder(ctx),
			d:     make([]int64, ctx.N),
			pts:   make([]*bfv.Plaintext, bs),
			inner: ctx.NewCiphertext(),
			sum:   ctx.NewCiphertext(),
		}
		for b := range ln.pts {
			ln.pts[b] = ctx.NewPlaintext()
		}
		return ln
	})
}

// BabySteps picks the BSGS split for dimension n: the largest power of
// two ≤ √n (so both bs and n/bs divide n).
func BabySteps(n int) int {
	bs := 1
	for bs*bs < n {
		bs <<= 1
	}
	if bs*bs > n {
		bs >>= 1
	}
	return bs
}

// NewPacker builds a packer for LWE dimension n = len(sk.S). The
// encryptor must hold the BFV public key; the LWE secret is embedded in
// the packing keys (encrypted) and not retained.
func NewPacker(ctx *bfv.Context, enc *bfv.Encryptor, sk *lwe.SecretKey) (*Packer, error) {
	n := sk.Dim()
	row := ctx.N / 2
	if n > row || row%n != 0 {
		return nil, fmt.Errorf("pack: LWE dimension %d must divide the row size %d", n, row)
	}
	cod := bfv.NewEncoder(ctx)
	bs := BabySteps(n)
	babies := make([]*bfv.Ciphertext, bs)
	vals := make([]int64, ctx.N)
	for b := 0; b < bs; b++ {
		for i := 0; i < ctx.N; i++ {
			vals[i] = sk.S[(i%row+b)%n]
		}
		babies[b] = enc.Encrypt(cod.EncodeSlots(vals))
	}
	return NewPackerFromKeys(ctx, n, babies)
}

// NewPackerFromKeys rebuilds a packer from its public key material: the
// pre-rotated baby-step encryptions of the LWE secret (see NewPacker).
// This is the server-side constructor of a deployment where the client
// generates keys and uploads Keys(); no secret material is involved.
func NewPackerFromKeys(ctx *bfv.Context, n int, babies []*bfv.Ciphertext) (*Packer, error) {
	row := ctx.N / 2
	if n <= 0 || n > row || row%n != 0 {
		return nil, fmt.Errorf("pack: LWE dimension %d must divide the row size %d", n, row)
	}
	bs := BabySteps(n)
	if len(babies) != bs {
		return nil, fmt.Errorf("pack: %d packing keys, dimension %d needs %d", len(babies), n, bs)
	}
	p := &Packer{ctx: ctx, n: n, bs: bs, babies: babies}
	gs := n / bs
	p.rotIdx, p.giantEls = make([][]int, gs), make([]uint64, gs)
	for a := 0; a < gs; a++ {
		idx := make([]int, ctx.N)
		for i := range idx {
			r, c := i/row, i%row
			idx[i] = r*row + ((c-a*bs)%row+row)%row
		}
		p.rotIdx[a] = idx
		p.giantEls[a] = ring.GaloisElementForRotation(ctx.N, a*bs)
	}
	return p, nil
}

// Keys exposes the packer's public key material for serialization: the
// LWE dimension and the baby-step packing-key ciphertexts. The returned
// slice is the packer's own (treat as read-only).
func (p *Packer) Keys() (n int, babies []*bfv.Ciphertext) { return p.n, p.babies }

// GaloisElements returns the rotation elements the evaluator needs:
// multiples of the baby-step count.
func (p *Packer) GaloisElements() []uint64 { return GaloisElements(p.ctx, p.n) }

// GaloisElements returns the rotation elements a packer of LWE dimension
// n over ctx reads (its giant steps), without building one: key
// generation and key validation need them before any packer exists.
func GaloisElements(ctx *bfv.Context, n int) []uint64 {
	bs := BabySteps(n)
	gs := n / bs
	rots := make([]int, 0, gs-1)
	for a := 1; a < gs; a++ {
		rots = append(rots, a*bs)
	}
	return bfv.RotationGaloisElements(ctx, rots)
}

// PackWith is PackInto into a fresh ciphertext. It exists for bench/'s
// pack probe and goes when that probe moves.
func (p *Packer) PackWith(ev *bfv.Evaluator, sc *Scratch, cts []lwe.Ciphertext) (*bfv.Ciphertext, error) {
	out := p.ctx.NewCiphertext()
	return out, p.PackInto(ev, sc, cts, out)
}

// PackInto homomorphically decrypts cts into slots 0..len(cts)-1 of out,
// a ciphertext of the packer's context. All inputs must have dimension n
// and modulus t; at most N fit. The BSGS giant steps fan out over sc's
// lanes, each a ShallowCopy of ev summing its giant steps into a
// ciphertext it owns — lane 0 into out — and the lane sums are added
// into out. The additions are exact modulo q, so out is bit-identical at
// any GOMAXPROCS. out must not alias a ciphertext of sc. Once sc's lanes
// are built, a call allocates nothing beyond par.ForEach's own spawn
// (TestPackIntoZeroAllocs, TestPackIntoFannedOutAllocs); the spawn and
// the lanes' closures keep it off the static noalloc contract, which
// giantStep carries.
func (p *Packer) PackInto(ev *bfv.Evaluator, sc *Scratch, cts []lwe.Ciphertext, out *bfv.Ciphertext) error {
	ctx := p.ctx
	if len(cts) == 0 || len(cts) > ctx.N {
		return fmt.Errorf("pack: %d ciphertexts for %d slots", len(cts), ctx.N)
	}
	for i := range cts {
		if len(cts[i].A) != p.n {
			return fmt.Errorf("pack: ciphertext %d has dimension %d, want %d", i, len(cts[i].A), p.n)
		}
		if cts[i].Q != ctx.Params.T {
			return fmt.Errorf("pack: ciphertext %d has modulus %d, want t=%d", i, cts[i].Q, ctx.Params.T)
		}
	}
	if sc.lanes == nil || sc.base != ev || sc.bs != p.bs {
		sc.bind(ctx, ev, p.bs)
	}
	if gs := p.n / p.bs; len(sc.errs) != gs {
		sc.errs = make([]error, gs) // a scratch made by a packer of another split
	}
	sc.lanes.Each(func(ln *packLane) { ln.steps = 0 })
	// One giant step costs bs diagonal gathers + encodes + plaintext
	// products plus one rotation — always worth a worker; MinGrain 1 lets
	// the fan-out engage even at gs of a few.
	sc.p, sc.cts, sc.out = p, cts, out
	par.ForEach(len(sc.errs), par.Options{MinGrain: 1}, sc.step)
	sc.p, sc.cts, sc.out = nil, nil, nil
	if err := par.FirstErr(sc.errs); err != nil {
		return err
	}
	ln := sc.lanes.Get(0)
	sc.lanes.Each(func(part *packLane) {
		if part != ln && part.steps > 0 {
			ev.AddInPlace(out, part.sum)
		}
	})

	// Add the b terms as a plaintext, staged in lane 0.
	d := ln.d
	for i := range d {
		d[i] = 0
	}
	for i := range cts {
		d[i] = int64(cts[i].B)
	}
	ln.cod.EncodeSlotsInto(d, ln.pts[0])
	ev.AddPlainInPlace(out, ln.pts[0])
	return nil
}

// giantStep sets dst to giant step a of the BSGS product: the baby-step
// inner sum Σ_b babies[b]·diag(a·bs+b), rotated by a·bs, staged in the
// lane. The plaintext multiplier for giant step a, baby step b is the
// matrix diagonal diag(a·bs+b)[i] = A[i][(col(i)+a·bs+b) mod n]
// pre-rotated by -a·bs; composing both permutations through the cached
// rotIdx table reduces it to one gather per slot. The bs diagonals are
// encoded into the lane's plaintexts and summed against the babies in
// one lazy sum per limb (bfv.Evaluator.MulPlainSumLiftInto). The
// rotation runs dst -> dst in the evaluator's scratch.
//
//lint:noalloc
func (p *Packer) giantStep(ln *packLane, cts []lwe.Ciphertext, a int, dst *bfv.Ciphertext) error {
	row := p.ctx.N / 2
	src := p.rotIdx[a]
	d := ln.d
	for b, pt := range ln.pts {
		j := a*p.bs + b
		for i := range d {
			s := src[i]
			if s < len(cts) {
				d[i] = int64(cts[s].A[(s%row+j)%p.n])
			} else {
				d[i] = 0
			}
		}
		ln.cod.EncodeSlotsInto(d, pt)
	}
	ln.ev.MulPlainSumLiftInto(p.babies, ln.pts, dst)
	if a > 0 {
		return ln.ev.AutomorphismInto(dst, p.giantEls[a], dst)
	}
	return nil
}
