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
// public object of the conversion pipeline).
func WriteKeySwitchKey(k *KeySwitchKey, w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := k.Shape()
	if err := ring.WriteWords(bw, magicKSK, wireVer, k.Q, k.Base, uint64(k.Digits), uint64(s.NIn), uint64(s.NOut)); err != nil {
		return err
	}
	for _, row := range k.Keys {
		if len(row) != k.Digits {
			return fmt.Errorf("lwe: ragged keyswitch key")
		}
		for _, ct := range row {
			if err := ring.WriteWords(bw, ct.A...); err != nil {
				return err
			}
			if err := ring.WriteWords(bw, ct.B); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// KeySwitchShape is what a reader expects of a keyswitch key: the input
// and output dimensions, the modulus and the digit count.
type KeySwitchShape struct {
	NIn, NOut, Digits int
	Q                 uint64
}

// Shape returns k's dimensions.
func (k *KeySwitchKey) Shape() KeySwitchShape {
	s := KeySwitchShape{NIn: len(k.Keys), Digits: k.Digits, Q: k.Q}
	if len(k.Keys) > 0 && len(k.Keys[0]) > 0 {
		s.NOut = len(k.Keys[0][0].A)
	}
	return s
}

// ReadKeySwitchKey deserializes switching material of shape want. The
// header must match want before anything is allocated, so a short
// upload claiming a huge key costs the reader nothing; rows are then
// allocated one ciphertext at a time, each just before its words are
// read.
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
	if base < 2 {
		return nil, fmt.Errorf("lwe: wire decomposition base %d must be at least 2", base)
	}
	k := &KeySwitchKey{Q: q, Base: base, Digits: want.Digits, Keys: make([][]Ciphertext, want.NIn)}
	for j := range k.Keys {
		k.Keys[j] = make([]Ciphertext, want.Digits)
		for d := range k.Keys[j] {
			ct := &k.Keys[j][d]
			*ct = Ciphertext{Q: q, A: make([]uint64, want.NOut)}
			if err := readRow(&wr, ct); err != nil {
				return nil, fmt.Errorf("lwe: keyswitch row %d digit %d: %w", j, d, err)
			}
		}
	}
	return k, nil
}
