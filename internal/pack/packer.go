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
	"sync"

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

	// rotEl is the Galois element σ rotating both slot rows by bs. The
	// giant steps are summed by Horner's rule, so σ is the one rotation
	// a packing reads: giant step a is rotated by σ^a, a·bs.
	rotEl uint64
}

// Scratch holds the per-call staging of one PackInto caller: the call
// being fanned out, the worker function over it, the worker lanes that
// compute the giant steps' inner sums, and the state of the Horner fold
// they feed. Distinct Scratches over one Packer may run concurrently; a
// single Scratch may not.
type Scratch struct {
	// The call being fanned out: its packer, inputs and output. step
	// reads them through the scratch and is built once, so a fanned-out
	// call costs no closure.
	p    *Packer
	cts  []lwe.Ciphertext
	out  *bfv.Ciphertext
	step func(w, i int)

	// Giant-step fan-out lanes, keyed to the evaluator passed to
	// PackInto and the baby-step count, and reused while both stay the
	// same. The fold runs on an evaluator of its own, whichever lane
	// runs it, so its rotation staging is built by the first call and
	// not by whichever lane first folds.
	base   *bfv.Evaluator
	bs     int
	lanes  *par.Pool[*packLane]
	foldEv *bfv.Evaluator

	// The fold, all guarded by mu. Position k is giant step gs−1−k. The
	// lanes claim positions in order and held[k] is position k's inner
	// sum once computed (out itself for position 0). The fold has added
	// every position below next; folding is set while a lane runs it,
	// and err is the first rotation that failed. freed is signalled each
	// time the fold adds a position, which frees that position's buffer.
	mu      sync.Mutex
	freed   sync.Cond
	held    []*bfv.Ciphertext
	claimed int
	next    int
	folding bool
	err     error
}

// packLane is one worker of the giant-step fan-out: a ShallowCopy'd
// evaluator, its own diagonal staging (one plaintext per baby step), and
// two buffers its inner sums wait in until the fold adds them; at[i] is
// the position bufs[i] holds, free once the fold is past it. After the
// fan-out lane 0 stages the b terms.
type packLane struct {
	ev   *bfv.Evaluator
	cod  *bfv.Encoder
	d    []int64
	pts  []*bfv.Plaintext
	bufs [2]*bfv.Ciphertext
	at   [2]int
}

// NewScratch returns staging state for one concurrent PackInto caller.
// Its lanes are built by the first call. A Scratch is not tied to p: each
// call packs with the packer it is made on.
func (p *Packer) NewScratch() *Scratch {
	sc := &Scratch{}
	sc.freed.L = &sc.mu
	sc.step = func(w, _ int) {
		// A lane computes whichever position is next until none is
		// left, owning each buffer it claims until the fold has added it.
		ln := sc.lanes.Get(w)
		for {
			sc.mu.Lock()
			k, dst := sc.claim(ln)
			sc.mu.Unlock()
			if dst == nil {
				return
			}
			sc.p.giantStep(ln, sc.cts, len(sc.held)-1-k, dst)
			sc.mu.Lock()
			sc.held[k] = dst
			run := !sc.folding && sc.next == k
			sc.folding = sc.folding || run
			sc.mu.Unlock()
			if run {
				sc.fold()
			}
		}
	}
	return sc
}

// claim reserves the next position for ln and returns it with the
// ciphertext to compute it in, waiting while both of ln's buffers hold
// sums the fold has not added; it returns a nil ciphertext once every
// position is claimed or the fold has failed. Positions are claimed in
// order, each with its buffer, so the position the fold waits for is
// always being computed. Called with mu held.
func (sc *Scratch) claim(ln *packLane) (int, *bfv.Ciphertext) {
	for sc.err == nil && sc.claimed < len(sc.held) {
		k := sc.claimed
		if k == 0 {
			sc.claimed++
			return 0, sc.out
		}
		for i, at := range ln.at {
			if at < sc.next {
				sc.claimed++
				ln.at[i] = k
				return k, ln.bufs[i]
			}
		}
		sc.freed.Wait() //lint:holdok Cond.Wait releases mu while it waits for the fold to free a buffer
	}
	return 0, nil
}

// fold runs the Horner chain out ← σ(out) + held[k] as far as the
// computed positions reach: it adds position next, then, unless that was
// the last, rotates out by σ before looking for the next one, so the
// rotation overlaps the inner sums still being computed. It is run by
// the lane that set folding on completing position next, and clears
// folding when it stops.
func (sc *Scratch) fold() {
	for {
		sc.mu.Lock()
		k := sc.next
		if sc.err != nil || k == len(sc.held) || sc.held[k] == nil {
			sc.folding = false
			sc.mu.Unlock()
			return
		}
		inner := sc.held[k]
		sc.mu.Unlock()
		if k > 0 {
			sc.foldEv.AddInPlace(sc.out, inner)
		}
		sc.mu.Lock()
		sc.next++
		last := sc.next == len(sc.held)
		sc.freed.Broadcast()
		sc.mu.Unlock()
		if last {
			continue
		}
		if err := sc.foldEv.AutomorphismInto(sc.out, sc.p.rotEl, sc.out); err != nil {
			sc.mu.Lock()
			sc.err = err
			sc.freed.Broadcast()
			sc.mu.Unlock()
		}
	}
}

// bind builds the fan-out lanes over ev, an evaluator of ctx, for bs
// baby steps.
func (sc *Scratch) bind(ctx *bfv.Context, ev *bfv.Evaluator, bs int) {
	sc.base, sc.bs, sc.foldEv = ev, bs, ev.ShallowCopy()
	sc.lanes = par.NewPool(func() *packLane {
		ln := &packLane{
			ev:   ev.ShallowCopy(),
			cod:  bfv.NewEncoder(ctx),
			d:    make([]int64, ctx.N),
			pts:  make([]*bfv.Plaintext, bs),
			bufs: [2]*bfv.Ciphertext{ctx.NewCiphertext(), ctx.NewCiphertext()},
			at:   [2]int{-1, -1},
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
	p := &Packer{ctx: ctx, n: n, bs: bs, babies: babies, rotEl: ring.GaloisElementForRotation(ctx.N, bs)}
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
	return p, nil
}

// Keys exposes the packer's public key material for serialization: the
// LWE dimension and the baby-step packing-key ciphertexts. The returned
// slice is the packer's own (treat as read-only).
func (p *Packer) Keys() (n int, babies []*bfv.Ciphertext) { return p.n, p.babies }

// GaloisElements returns the rotation elements the evaluator needs: the
// one rotation by the baby-step count.
func (p *Packer) GaloisElements() []uint64 { return GaloisElements(p.ctx.N, p.n) }

// GaloisElements returns the rotation elements a packer of LWE dimension
// n over a ring of degree ringN reads, without building one: key
// generation and key validation need them before any packer exists. The
// Horner fold of the giant steps reads one, the rotation by the
// baby-step count, and none when there is one giant step.
func GaloisElements(ringN, n int) []uint64 {
	bs := BabySteps(n)
	if n/bs < 2 {
		return nil
	}
	return []uint64{ring.GaloisElementForRotation(ringN, bs)}
}

// PackWith is PackInto into a fresh ciphertext. It exists for bench/'s
// pack probe and goes when that probe moves.
func (p *Packer) PackWith(ev *bfv.Evaluator, sc *Scratch, cts []lwe.Ciphertext) (*bfv.Ciphertext, error) {
	out := p.ctx.NewCiphertext()
	return out, p.PackInto(ev, sc, cts, out)
}

// PackInto homomorphically decrypts cts into slots 0..len(cts)-1 of out,
// a ciphertext of the packer's context. All inputs must have dimension n
// and modulus t; at most N fit. The giant steps are summed by Horner's
// rule, out = σ(… σ(σ(inner_{gs−1}) + inner_{gs−2}) …) + inner_0 with σ
// the rotation by bs: the same gs − 1 keyswitches as one rotation per
// giant step, all under σ's one key. The inner sums fan out over sc's
// lanes, each a ShallowCopy of ev, in the fold's order and each into a
// buffer of its lane (inner_{gs−1} into out), so at most two per lane
// wait to be added. Whichever lane completes the sum the fold needs next
// runs the fold as far as the completed sums reach, rotating out before
// it waits for the next, so the chain overlaps the sums still being
// computed. The fold's order is fixed and its additions exact modulo q,
// so out is bit-identical at any GOMAXPROCS. out must not alias a
// ciphertext of sc. Once sc's lanes are built, a call allocates nothing
// beyond par.ForEach's own spawn (TestPackIntoZeroAllocs,
// TestPackIntoFannedOutAllocs); the spawn, the lanes' closures and the
// fold's lock keep it off the static noalloc contract, which giantStep
// carries.
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
	if gs := p.n / p.bs; len(sc.held) != gs {
		sc.held = make([]*bfv.Ciphertext, gs) // a scratch made by a packer of another split
	}
	clear(sc.held)
	sc.claimed, sc.next, sc.err = 0, 0, nil
	sc.lanes.Each(func(ln *packLane) { ln.at = [2]int{-1, -1} })
	// One inner sum costs bs diagonal gathers + encodes and one lazy
	// plaintext product — always worth a worker, even at gs of a few.
	// Each worker runs one step, which claims positions until none is
	// left: a lane that folds claims fewer.
	sc.p, sc.cts, sc.out = p, cts, out
	par.ForEach(par.Workers(len(sc.held)), sc.step)
	sc.p, sc.cts, sc.out = nil, nil, nil
	if sc.err != nil {
		return sc.err
	}

	// Add the b terms as a plaintext, staged in lane 0.
	ln := sc.lanes.Get(0)
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

// giantStep sets dst to giant step a's inner sum Σ_b babies[b]·diag(a·bs+b),
// staged in the lane, left unrotated: the fold rotates it by a·bs. The
// plaintext multiplier for giant step a, baby step b is the matrix
// diagonal diag(a·bs+b)[i] = A[i][(col(i)+a·bs+b) mod n] pre-rotated by
// -a·bs; composing both permutations through the cached rotIdx table
// reduces it to one gather per slot. The bs diagonals are encoded into
// the lane's plaintexts and summed against the babies in one lazy sum per
// limb (bfv.Evaluator.MulPlainSumLiftInto).
//
//lint:noalloc
func (p *Packer) giantStep(ln *packLane, cts []lwe.Ciphertext, a int, dst *bfv.Ciphertext) {
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
}
