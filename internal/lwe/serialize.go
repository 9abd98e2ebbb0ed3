package lwe

import (
	"bufio"
	"fmt"
	"io"

	"athena/internal/ring"
)

const (
	magicLWE = 0x414c5731 // "ALW1"
	magicKSK = 0x414b4b31 // "AKK1"
	wireVer  = 1
)

// WriteCiphertext serializes one LWE ciphertext.
func WriteCiphertext(ct Ciphertext, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := ring.WriteWords(bw, magicLWE, wireVer, ct.Q, uint64(len(ct.A))); err != nil {
		return err
	}
	if err := ring.WriteWords(bw, ct.A...); err != nil {
		return err
	}
	if err := ring.WriteWords(bw, ct.B); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCiphertext deserializes one LWE ciphertext.
func ReadCiphertext(r io.Reader) (Ciphertext, error) {
	wr := ring.WordReader{R: bufio.NewReader(r)}
	var hdr [4]uint64
	if err := wr.Words(hdr[:]); err != nil {
		return Ciphertext{}, err
	}
	if hdr[0] != magicLWE {
		return Ciphertext{}, fmt.Errorf("lwe: bad magic %#x", hdr[0])
	}
	if hdr[1] != wireVer {
		return Ciphertext{}, fmt.Errorf("lwe: unsupported version %d", hdr[1])
	}
	n := hdr[3]
	if n > 1<<20 {
		return Ciphertext{}, fmt.Errorf("lwe: implausible dimension %d", n)
	}
	// Validate the modulus up front: every consumer builds reduction
	// constants from Q, and a wire-supplied Q of 0 or 2^63 must fail
	// here with an error rather than panic downstream.
	if _, err := ring.TryNewModulus(hdr[2]); err != nil {
		return Ciphertext{}, fmt.Errorf("lwe: wire modulus rejected: %w", err)
	}
	ct := Ciphertext{Q: hdr[2], A: make([]uint64, n)}
	if err := readRow(&wr, &ct); err != nil {
		return Ciphertext{}, err
	}
	return ct, nil
}

// readRow decodes a mask of len(ct.A) words and then the body, each
// below ct.Q, straight into ct.
func readRow(wr *ring.WordReader, ct *Ciphertext) error {
	if err := wr.WordsBelow(ct.A, ct.Q); err != nil {
		return fmt.Errorf("lwe: wire mask: %w", err)
	}
	var b [1]uint64
	if err := wr.WordsBelow(b[:], ct.Q); err != nil {
		return fmt.Errorf("lwe: wire body: %w", err)
	}
	ct.B = b[0]
	return nil
}

// WriteKeySwitchKey serializes the N→n switching material (the largest
// public object of the conversion pipeline): the header, then the key
// matrix as it lies in memory.
func WriteKeySwitchKey(k *KeySwitchKey, w io.Writer) error {
	if len(k.M) != k.words() {
		return fmt.Errorf("lwe: keyswitch matrix of %d words, shape %+v needs %d", len(k.M), k.KeySwitchShape, k.words())
	}
	bw := bufio.NewWriter(w)
	if err := ring.WriteWords(bw, magicKSK, wireVer, k.Q, k.Base, uint64(k.Digits), uint64(k.NIn), uint64(k.NOut)); err != nil {
		return err
	}
	if err := ring.WriteWords(bw, k.M...); err != nil {
		return err
	}
	return bw.Flush()
}

// WireSize returns the length in bytes of WriteKeySwitchKey's encoding
// of k: seven header words and the matrix.
func (k *KeySwitchKey) WireSize() int64 { return 8 * int64(7+len(k.M)) }

// KeySwitchShape is what a reader expects of a keyswitch key: the input
// and output dimensions, the modulus and the digit count.
type KeySwitchShape struct {
	NIn, NOut, Digits int
	Q                 uint64
}

// Shape returns k's dimensions.
func (k *KeySwitchKey) Shape() KeySwitchShape { return k.KeySwitchShape }

// ReadKeySwitchKey deserializes switching material of shape want. The
// header must match want, and its base pass CheckBase, before anything
// is allocated, so a short upload claiming a huge key costs the reader
// nothing. The matrix is then one allocation of want's size, filled
// row by row so the word reader stages one row at a time.
func ReadKeySwitchKey(r io.Reader, want KeySwitchShape) (*KeySwitchKey, error) {
	wr := ring.WordReader{R: bufio.NewReader(r)}
	var hdr [7]uint64
	if err := wr.Words(hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magicKSK {
		return nil, fmt.Errorf("lwe: bad magic %#x", hdr[0])
	}
	if hdr[1] != wireVer {
		return nil, fmt.Errorf("lwe: unsupported version %d", hdr[1])
	}
	q, base, digits, nIn, nOut := hdr[2], hdr[3], hdr[4], hdr[5], hdr[6]
	if q != want.Q || digits != uint64(want.Digits) || nIn != uint64(want.NIn) || nOut != uint64(want.NOut) {
		return nil, fmt.Errorf("lwe: keyswitch key q=%d digits=%d %d→%d, want q=%d digits=%d %d→%d",
			q, digits, nIn, nOut, want.Q, want.Digits, want.NIn, want.NOut)
	}
	if _, err := ring.TryNewModulus(q); err != nil {
		return nil, fmt.Errorf("lwe: wire modulus rejected: %w", err)
	}
	if err := CheckBase(q, base); err != nil {
		return nil, fmt.Errorf("lwe: wire base rejected: %w", err)
	}
	k := &KeySwitchKey{KeySwitchShape: want, Base: base, M: make([]uint64, want.words())}
	w := want.NOut + 1
	for row := 0; row < want.NIn*want.Digits; row++ {
		if err := wr.WordsBelow(k.M[row*w:(row+1)*w], q); err != nil {
			return nil, fmt.Errorf("lwe: keyswitch row %d digit %d: %w", row/want.Digits, row%want.Digits, err)
		}
	}
	return k, nil
}
