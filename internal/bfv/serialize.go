package bfv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"athena/internal/ring"
)

// Wire format: everything little-endian. Each object starts with a
// 4-byte magic, a format version, and the parameter fingerprint
// (logN, limb count, t) so mismatched contexts fail loudly instead of
// decrypting garbage.

const (
	magicCiphertext = 0x41435431 // "ACT1"
	magicSecretKey  = 0x41534b31 // "ASK1"
	magicPublicKey  = 0x41504b31 // "APK1"
	magicKeySet     = 0x414b5331 // "AKS1"
	wireVersion     = 1

	// keySetVersion is the key set's version: 2 since each switching key
	// travels as its mask seed and its B rows (1 carried the A rows).
	keySetVersion = 2
)

// wireWriter and wireReader carry a sticky error so a decoder reads as
// a straight sequence of fields; the words themselves move in bulk
// through ring.WriteWords and ring.WordReader.
type wireWriter struct {
	w   *bufio.Writer
	err error
}

func (w *wireWriter) u64(vs ...uint64) {
	if w.err == nil {
		w.err = ring.WriteWords(w.w, vs...)
	}
}

// poly writes the limb count, then each limb as its length and its words.
func (w *wireWriter) poly(p ring.Poly) {
	w.u64(uint64(len(p.Coeffs)))
	for _, limb := range p.Coeffs {
		w.u64(uint64(len(limb)))
		w.u64(limb...)
	}
}

// seed writes a mask seed as four little-endian words.
func (w *wireWriter) seed(s *[32]byte) {
	le := binary.LittleEndian
	w.u64(le.Uint64(s[0:]), le.Uint64(s[8:]), le.Uint64(s[16:]), le.Uint64(s[24:]))
}

type wireReader struct {
	ring.WordReader
	err error
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{WordReader: ring.WordReader{R: bufio.NewReader(r)}}
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	v, r.err = r.Word()
	return v
}

// poly reads a full-level polynomial: secret and public keys always
// travel over the complete modulus chain.
func (r *wireReader) poly(rq *ring.Ring) ring.Poly {
	got := r.u64()
	if r.err != nil {
		return ring.Poly{}
	}
	if got != uint64(rq.Level()) {
		r.err = fmt.Errorf("bfv: wire poly has %d limbs, context expects %d", got, rq.Level())
		return ring.Poly{}
	}
	return r.polyBody(rq, int(got))
}

// ctPoly reads a ciphertext polynomial, which may travel at a reduced
// level: any prefix of the context's modulus chain is accepted, and each
// limb is validated against the matching modulus.
func (r *wireReader) ctPoly(rq *ring.Ring) ring.Poly {
	got := r.u64()
	if r.err != nil {
		return ring.Poly{}
	}
	if got < 1 || got > uint64(rq.Level()) {
		r.err = fmt.Errorf("bfv: wire ciphertext has %d limbs, context holds %d", got, rq.Level())
		return ring.Poly{}
	}
	return r.polyBody(rq, int(got))
}

// polyBody reads limbs limbs of N words each, decoding every limb
// straight into the polynomial. Residues at or above q_i break the
// Barrett/Shoup preconditions downstream and silently corrupt NTT limbs;
// WordsBelow rejects them here, at the trust boundary.
func (r *wireReader) polyBody(rq *ring.Ring, limbs int) ring.Poly {
	p := rq.NewPolyAt(limbs)
	for i := range p.Coeffs {
		n := r.u64()
		if r.err != nil {
			return ring.Poly{}
		}
		if n != uint64(rq.N) {
			r.err = fmt.Errorf("bfv: wire limb has %d coeffs, want %d", n, rq.N)
			return ring.Poly{}
		}
		if err := r.WordsBelow(p.Coeffs[i], rq.Moduli[i].Q); err != nil {
			r.err = fmt.Errorf("bfv: wire limb %d: %w", i, err)
			return ring.Poly{}
		}
	}
	return p
}

// headerWords is the length of writeHeader's output in words.
const headerWords = 5

func (c *Context) writeHeader(w *wireWriter, magic, version uint64) {
	w.u64(magic, version, uint64(c.Params.LogN), uint64(len(c.Params.Qi)), c.Params.T)
}

func (c *Context) readHeader(r *wireReader, magic, version uint64) error {
	if got := r.u64(); r.err == nil && got != magic {
		return fmt.Errorf("bfv: bad magic %#x", got)
	}
	if v := r.u64(); r.err == nil && v != version {
		return fmt.Errorf("bfv: unsupported wire version %d", v)
	}
	logN := r.u64()
	limbs := r.u64()
	t := r.u64()
	if r.err != nil {
		return r.err
	}
	if int(logN) != c.Params.LogN || int(limbs) != len(c.Params.Qi) || t != c.Params.T {
		return fmt.Errorf("bfv: parameter mismatch (wire logN=%d limbs=%d t=%d)", logN, limbs, t)
	}
	return nil
}

// WriteCiphertext serializes ct.
func (c *Context) WriteCiphertext(ct *Ciphertext, w io.Writer) error {
	ww := &wireWriter{w: bufio.NewWriter(w)}
	c.writeHeader(ww, magicCiphertext, wireVersion)
	ww.poly(ct.C0)
	ww.poly(ct.C1)
	if ww.err != nil {
		return ww.err
	}
	return ww.w.Flush()
}

// ReadCiphertext deserializes a ciphertext produced under the same
// parameters.
func (c *Context) ReadCiphertext(r io.Reader) (*Ciphertext, error) {
	rr := newWireReader(r)
	if err := c.readHeader(rr, magicCiphertext, wireVersion); err != nil {
		return nil, err
	}
	ct := &Ciphertext{C0: rr.ctPoly(c.RingQ), C1: rr.ctPoly(c.RingQ)}
	if rr.err != nil {
		return nil, rr.err
	}
	if ct.C0.Level() != ct.C1.Level() {
		return nil, fmt.Errorf("bfv: ciphertext components at levels %d and %d", ct.C0.Level(), ct.C1.Level())
	}
	return ct, nil
}

// WriteSecretKey serializes sk (including the signed coefficient vector
// needed for the LWE bridge).
func (c *Context) WriteSecretKey(sk *SecretKey, w io.Writer) error {
	ww := &wireWriter{w: bufio.NewWriter(w)}
	c.writeHeader(ww, magicSecretKey, wireVersion)
	ww.poly(sk.Value)
	ww.u64(uint64(len(sk.Signed)))
	for _, s := range sk.Signed {
		ww.u64(uint64(s + 1)) // {-1,0,1} -> {0,1,2}
	}
	if ww.err != nil {
		return ww.err
	}
	return ww.w.Flush()
}

// ReadSecretKey deserializes a secret key.
func (c *Context) ReadSecretKey(r io.Reader) (*SecretKey, error) {
	rr := newWireReader(r)
	if err := c.readHeader(rr, magicSecretKey, wireVersion); err != nil {
		return nil, err
	}
	sk := &SecretKey{Value: rr.poly(c.RingQ)}
	n := rr.u64()
	if rr.err != nil {
		return nil, rr.err
	}
	if n != uint64(c.N) {
		return nil, fmt.Errorf("bfv: signed vector length %d, want %d", n, c.N)
	}
	sk.Signed = make([]int64, n)
	for i := range sk.Signed {
		v := rr.u64()
		if v > 2 {
			return nil, fmt.Errorf("bfv: non-ternary signed coefficient %d", v)
		}
		sk.Signed[i] = int64(v) - 1
	}
	if rr.err != nil {
		return nil, rr.err
	}
	return sk, nil
}

// WritePublicKey serializes pk.
func (c *Context) WritePublicKey(pk *PublicKey, w io.Writer) error {
	ww := &wireWriter{w: bufio.NewWriter(w)}
	c.writeHeader(ww, magicPublicKey, wireVersion)
	ww.poly(pk.P0)
	ww.poly(pk.P1)
	if ww.err != nil {
		return ww.err
	}
	return ww.w.Flush()
}

// ReadPublicKey deserializes a public key.
func (c *Context) ReadPublicKey(r io.Reader) (*PublicKey, error) {
	rr := newWireReader(r)
	if err := c.readHeader(rr, magicPublicKey, wireVersion); err != nil {
		return nil, err
	}
	pk := &PublicKey{P0: rr.poly(c.RingQ), P1: rr.poly(c.RingQ)}
	if rr.err != nil {
		return nil, rr.err
	}
	return pk, nil
}

// WriteKeySet serializes the evaluation keys (relinearization +
// galois). Each switching key travels as its level, its mask seed and
// its B polynomials; the reader expands A from the seed.
func (c *Context) WriteKeySet(ks *KeySet, w io.Writer) error {
	ww := &wireWriter{w: bufio.NewWriter(w)}
	c.writeHeader(ww, magicKeySet, keySetVersion)
	writeSwk := func(s *SwitchingKey) {
		ww.u64(uint64(len(s.B)))
		ww.seed(&s.Seed)
		for _, b := range s.B {
			ww.poly(b)
		}
	}
	if ks.Relin != nil {
		ww.u64(1)
		writeSwk(&ks.Relin.SwitchingKey)
	} else {
		ww.u64(0)
	}
	// Sorted element order keeps the encoding deterministic, so equal
	// key sets serialize to equal bytes (content-addressed session IDs
	// in the serving layer depend on this).
	els := make([]uint64, 0, len(ks.Galois))
	for g := range ks.Galois {
		els = append(els, g)
	}
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
	ww.u64(uint64(len(ks.Galois)))
	for _, g := range els {
		ww.u64(g)
		writeSwk(&ks.Galois[g].SwitchingKey)
	}
	if ww.err != nil {
		return ww.err
	}
	return ww.w.Flush()
}

// KeySetFrameSize is the bytes of a key set's framing around its keys:
// the header, the relinearization flag and the Galois count.
const KeySetFrameSize = 8 * (headerWords + 2)

// SwitchingKeySize returns, from its shape alone, the bytes one level-l
// switching key over a ring of degree n adds to a key set: on the wire
// (WriteKeySet) its level, its seed and its B rows; held, once A is
// expanded, its level and both halves, framed alike. A Galois key adds
// its element's word to both.
func SwitchingKeySize(l, n int) (wire, held int64) {
	rows := int64(l) * polyShapeWords(l, n) // l polynomials of l limbs
	return 8 * (1 + 4 + rows), 8 * (1 + 2*rows)
}

// CiphertextWireSize returns the length in bytes of WriteCiphertext's
// encoding of a ciphertext of l limbs over a ring of degree n.
func CiphertextWireSize(l, n int) int64 {
	return 8 * (headerWords + 2*polyShapeWords(l, n))
}

// polyShapeWords is the length in words of wireWriter.poly's output for
// a polynomial of l limbs of n words.
func polyShapeWords(l, n int) int64 { return 1 + int64(l)*(1+int64(n)) }

// ErrKeyShape reports switching-key wire data whose level is outside the
// context's chain or whose polynomials disagree with the key's level.
var ErrKeyShape = errors.New("bfv: malformed switching key")

// ReadKeySet deserializes evaluation keys. Each switching key may travel
// at any level ℓ in [1, L] — its seed and ℓ B components of exactly ℓ
// limbs each (see SwitchingKey) — so a full-chain key set is the ℓ = L
// case of the same format. A is expanded from the seed through rows,
// which is re-keyed in place for every row. Whether a key's level
// covers the level it is used at is the caller's to check.
func (c *Context) ReadKeySet(r io.Reader, rows *ring.RowStream) (*KeySet, error) {
	rr := newWireReader(r)
	if err := c.readHeader(rr, magicKeySet, keySetVersion); err != nil {
		return nil, err
	}
	readSwk := func() (SwitchingKey, error) {
		n := rr.u64()
		if rr.err != nil {
			return SwitchingKey{}, rr.err
		}
		if n < 1 || n > uint64(c.Level()) {
			return SwitchingKey{}, fmt.Errorf("%w: %d components, chain holds %d limbs", ErrKeyShape, n, c.Level())
		}
		var s SwitchingKey
		var seed [4]uint64
		if rr.err = rr.Words(seed[:]); rr.err != nil {
			return SwitchingKey{}, fmt.Errorf("bfv: switching key seed: %w", rr.err)
		}
		for i, w := range seed {
			binary.LittleEndian.PutUint64(s.Seed[8*i:], w)
		}
		s.B = make([]ring.Poly, n)
		for i := range s.B {
			if got := rr.u64(); rr.err == nil && got != n {
				rr.err = fmt.Errorf("%w: a %d-limb polynomial in a level-%d key", ErrKeyShape, got, n)
			}
			if rr.err != nil {
				return SwitchingKey{}, rr.err
			}
			s.B[i] = rr.polyBody(c.RingQ, int(n))
		}
		if rr.err != nil {
			return SwitchingKey{}, rr.err
		}
		s.A = newKeyPolys(int(n), c.N)
		expandA(c.RingQ, rows, &s.Seed, s.A)
		return s, nil
	}
	ks := &KeySet{Galois: map[uint64]*GaloisKey{}}
	hasRelin := rr.u64()
	if rr.err != nil {
		return nil, rr.err
	}
	if hasRelin == 1 {
		swk, err := readSwk()
		if err != nil {
			return nil, err
		}
		ks.Relin = &RelinearizationKey{swk}
	}
	ng := rr.u64()
	if rr.err != nil {
		return nil, rr.err
	}
	if ng > 1<<16 {
		return nil, fmt.Errorf("bfv: implausible galois key count %d", ng)
	}
	for i := uint64(0); i < ng; i++ {
		g := rr.u64()
		swk, err := readSwk()
		if err != nil {
			return nil, err
		}
		ks.Galois[g] = &GaloisKey{GaloisEl: g, SwitchingKey: swk}
	}
	return ks, nil
}
