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
)

// Packer packs LWE ciphertexts (dimension n, modulus t) into BFV slots.
// The key material (babies, rotIdx) is immutable after construction;
// per-call staging lives in a Scratch, so concurrent Pack calls are safe
// as long as each caller holds its own Scratch (see PackWith).
type Packer struct {
	ctx *bfv.Context
	n   int
	bs  int // baby-step count (divides n)

	// babies[b] encrypts the LWE secret replicated across the slots and
	// pre-rotated by b: slot i holds s[(i%row + b) mod n]. Pre-encrypting
	// the rotations at key generation removes all baby-step rotations at
	// run time.
	babies []*bfv.Ciphertext

	// babyS[b] holds the Shoup companions of babies[b]. The packing keys
	// are fixed for the life of the packer while the diagonal plaintext
	// changes every call, so the companion lives on the ciphertext side
	// and the baby-step products run MulPlainFixed* instead of Barrett.
	babyS []*bfv.CiphertextShoup

	// rotIdx[a][i] is the slot feeding slot i after the giant-step
	// pre-rotation by -a·bs, computed once at construction so each Pack
	// call builds its diagonals with a single gather instead of re-deriving
	// the row/column permutation per element.
	rotIdx [][]int

	// sc is the default Scratch behind the single-caller Pack API.
	sc *Scratch
}

// Scratch holds the per-call staging of one Pack caller: the diagonal
// value vector with its encoded/lifted forms, an encoder (whose staging
// buffer makes it single-goroutine state), and the lazily-built worker
// lanes for the giant-step fan-out. Distinct Scratches over one Packer
// may run concurrently; a single Scratch may not.
type Scratch struct {
	p   *Packer
	cod *bfv.Encoder
	d   []int64
	pt  *bfv.Plaintext
	pm  *bfv.PlaintextMul

	// inner stages one giant step's baby-step inner sum on the
	// allocation-free PackInto path. Eager: PackInto promises zero
	// steady-state allocations, so nothing in it may lazily init.
	inner *bfv.Ciphertext

	// Giant-step fan-out lanes, keyed to the evaluator passed to
	// PackWith and reused while it stays the same.
	base  *bfv.Evaluator
	lanes *par.Pool[*packLane]
}

// packLane is one worker of the giant-step fan-out: a ShallowCopy'd
// evaluator plus its own diagonal staging buffers.
type packLane struct {
	ev  *bfv.Evaluator
	cod *bfv.Encoder
	d   []int64
	pt  *bfv.Plaintext
	pm  *bfv.PlaintextMul
}

// NewScratch returns staging state for one concurrent Pack caller.
func (p *Packer) NewScratch() *Scratch {
	return &Scratch{
		p:     p,
		cod:   bfv.NewEncoder(p.ctx),
		d:     make([]int64, p.ctx.N),
		pt:    p.ctx.NewPlaintext(),
		pm:    &bfv.PlaintextMul{Value: p.ctx.RingQ.NewPoly()},
		inner: p.ctx.NewCiphertext(),
	}
}

// lanePool returns the fan-out lanes for ev, rebuilding them when the
// base evaluator changes.
func (sc *Scratch) lanePool(ev *bfv.Evaluator) *par.Pool[*packLane] {
	if sc.lanes == nil || sc.base != ev {
		sc.base = ev
		p := sc.p
		sc.lanes = par.NewPool(func() *packLane {
			return &packLane{
				ev:  ev.ShallowCopy(),
				cod: bfv.NewEncoder(p.ctx),
				d:   make([]int64, p.ctx.N),
				pt:  p.ctx.NewPlaintext(),
				pm:  &bfv.PlaintextMul{Value: p.ctx.RingQ.NewPoly()},
			}
		})
	}
	return sc.lanes
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
	p.babyS = make([]*bfv.CiphertextShoup, bs)
	for b := range babies {
		p.babyS[b] = ctx.NewCiphertextShoup(babies[b])
	}
	gs := n / bs
	p.rotIdx = make([][]int, gs)
	for a := 0; a < gs; a++ {
		idx := make([]int, ctx.N)
		for i := range idx {
			r, c := i/row, i%row
			idx[i] = r*row + ((c-a*bs)%row+row)%row
		}
		p.rotIdx[a] = idx
	}
	p.sc = p.NewScratch()
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

// Pack homomorphically decrypts cts into slots 0..len(cts)-1 of one BFV
// ciphertext. All inputs must have dimension n and modulus t. At most N
// ciphertexts fit. Pack uses the packer's default scratch and is
// therefore single-caller state; concurrent callers use PackWith with a
// Scratch each.
func (p *Packer) Pack(ev *bfv.Evaluator, cts []lwe.Ciphertext) (*bfv.Ciphertext, error) {
	return p.PackWith(ev, p.sc, cts)
}

// PackWith is Pack with caller-owned staging: distinct Scratches over
// one Packer may run concurrently (the key material is read-only). The
// BSGS giant steps fan out across worker lanes — each a ShallowCopy of
// ev with its own diagonal staging — and the partial products are
// combined in giant-step order, so the output is bit-identical at any
// GOMAXPROCS.
func (p *Packer) PackWith(ev *bfv.Evaluator, sc *Scratch, cts []lwe.Ciphertext) (*bfv.Ciphertext, error) {
	ctx := p.ctx
	if len(cts) == 0 || len(cts) > ctx.N {
		return nil, fmt.Errorf("pack: %d ciphertexts for %d slots", len(cts), ctx.N)
	}
	for i := range cts {
		if len(cts[i].A) != p.n {
			return nil, fmt.Errorf("pack: ciphertext %d has dimension %d, want %d", i, len(cts[i].A), p.n)
		}
		if cts[i].Q != ctx.Params.T {
			return nil, fmt.Errorf("pack: ciphertext %d has modulus %d, want t=%d", i, cts[i].Q, ctx.Params.T)
		}
	}
	gs := p.n / p.bs

	// One giant step costs bs diagonal gathers + encodes + plaintext
	// products plus one rotation — always worth a worker; MinGrain 1 lets
	// the fan-out engage even at gs of a few.
	opts := par.Options{MinGrain: 1}
	var acc *bfv.Ciphertext
	if opts.Workers(gs) <= 1 {
		// Serial path: the allocation-free kernel, plus the one output
		// ciphertext this API promises to return fresh.
		out := ctx.NewCiphertext()
		if err := p.PackInto(ev, sc, cts, out); err != nil {
			return nil, err
		}
		return out, nil
	} else {
		inners := make([]*bfv.Ciphertext, gs)
		errs := make([]error, gs)
		pool := sc.lanePool(ev)
		par.ForEach(gs, opts, func(w, a int) {
			ln := pool.Get(w)
			// giantStep stages everything in the lane's ev/cod/diagonal
			// buffers; the Packer fields it reads (BSGS plan, rotation keys)
			// are immutable after NewPacker.
			//lint:allow scratchalias giantStep writes only the lane's scratch; p's plan/key fields are read-only here
			inners[a], errs[a] = p.giantStep(ln.ev, ln.cod, ln.d, ln.pt, ln.pm, cts, a)
		})
		for a := 0; a < gs; a++ {
			if errs[a] != nil {
				return nil, errs[a]
			}
			if acc == nil {
				acc = inners[a]
			} else {
				ev.AddInPlace(acc, inners[a])
			}
		}
	}

	// Add the b terms as a plaintext, reusing the diagonal scratch.
	d := sc.d
	for i := range d {
		d[i] = 0
	}
	for i := range cts {
		d[i] = int64(cts[i].B)
	}
	sc.cod.EncodeSlotsInto(d, sc.pt)
	out := ev.AddPlain(acc, sc.pt)
	return out, nil
}

// PackInto is the allocation-free serial Pack: it writes the packed
// ciphertext into out, staging every giant step in sc. One inference
// batch issues a Pack per FBS layer, so the steady state must not
// churn the heap; the BSGS fan-out of PackWith is traded away for the
// zero-allocation contract (AllocsPerRun holds GOMAXPROCS at 1 anyway,
// so this is also exactly the path the allocation accountant measures).
// out must not alias sc.inner; it may be any ciphertext of the packer's
// context, including one previously returned by Pack.
//
//lint:noalloc
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
	gs := p.n / p.bs
	for a := 0; a < gs; a++ {
		// Giant step 0 lands directly in out; later steps stage in
		// sc.inner and accumulate.
		dst := out
		if a > 0 {
			dst = sc.inner
		}
		if err := p.giantStepInto(ev, sc.cod, sc.d, sc.pt, sc.pm, cts, a, dst); err != nil {
			return err
		}
		if a > 0 {
			ev.AddInPlace(out, sc.inner)
		}
	}

	// Add the b terms as a plaintext, reusing the diagonal scratch.
	d := sc.d
	for i := range d {
		d[i] = 0
	}
	for i := range cts {
		d[i] = int64(cts[i].B)
	}
	sc.cod.EncodeSlotsInto(d, sc.pt)
	ev.AddPlainInPlace(out, sc.pt)
	return nil
}

// giantStep computes giant step a of the BSGS product: the baby-step
// inner sum Σ_b babies[b]·diag(a·bs+b), pre-rotated by a·bs. The
// plaintext multiplier for giant step a, baby step b is the matrix
// diagonal diag(a·bs+b)[i] = A[i][(col(i)+a·bs+b) mod n] pre-rotated by
// -a·bs; composing both permutations through the cached rotIdx table
// reduces it to one gather per slot.
func (p *Packer) giantStep(ev *bfv.Evaluator, cod *bfv.Encoder, d []int64, pt *bfv.Plaintext, pm *bfv.PlaintextMul, cts []lwe.Ciphertext, a int) (*bfv.Ciphertext, error) {
	inner := p.ctx.NewCiphertext()
	if err := p.giantStepInto(ev, cod, d, pt, pm, cts, a, inner); err != nil {
		return nil, err
	}
	return inner, nil
}

// giantStepInto is giantStep writing into a caller-provided ciphertext
// (the baby-step sum accumulates in dst, and the final giant-step
// rotation runs dst -> dst in the evaluator scratch), so the serial
// Pack path allocates nothing.
//
//lint:noalloc
func (p *Packer) giantStepInto(ev *bfv.Evaluator, cod *bfv.Encoder, d []int64, pt *bfv.Plaintext, pm *bfv.PlaintextMul, cts []lwe.Ciphertext, a int, dst *bfv.Ciphertext) error {
	row := p.ctx.N / 2
	src := p.rotIdx[a]
	for b := 0; b < p.bs; b++ {
		j := a*p.bs + b
		for i := range d {
			s := src[i]
			if s < len(cts) {
				d[i] = int64(cts[s].A[(s%row+j)%p.n])
			} else {
				d[i] = 0
			}
		}
		cod.EncodeSlotsInto(d, pt)
		cod.LiftToMulInto(pt, pm)
		if b == 0 {
			ev.MulPlainFixedInto(p.babies[b], p.babyS[b], pm, dst)
		} else {
			ev.MulPlainFixedAndAdd(p.babies[b], p.babyS[b], pm, dst)
		}
	}
	if a > 0 {
		return ev.RotateRowsInto(dst, a*p.bs, dst)
	}
	return nil
}
