package lwe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"athena/internal/ring"
)

const (
	magicLWE = 0x414c5731 // "ALW1"
	magicKSK = 0x414b4b31 // "AKK1"
	wireVer  = 1

	// keyWireVer is the keyswitch key's version: 3 since the key travels
	// as its mask seed and its B_d (2 carried the A_d too, 1 was the
	// per-value matrix).
	keyWireVer = 3
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

// WriteKey serializes k: a header of seven words (magic, version, Q,
// base, digits, N, n), the mask seed in four words, then B_d by digit,
// each taken back from its NTT image into one row.
func WriteKey(k *KeySwitchKey, w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := ring.WriteWords(bw, magicKSK, keyWireVer, k.Q, k.Base, uint64(k.Digits), uint64(k.N), uint64(k.Dim),
		le.Uint64(k.Seed[0:]), le.Uint64(k.Seed[8:]), le.Uint64(k.Seed[16:]), le.Uint64(k.Seed[24:])); err != nil {
		return err
	}
	row := make([]uint64, k.N)
	for _, b := range k.nttB {
		copy(row, b)
		k.ntt.Inverse(row)
		if err := ring.WriteWords(bw, row...); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ResidentSize returns the bytes k holds, its pairs' images and header:
// the length of the version-2 layout, which carried both halves.
func (k *KeySwitchKey) ResidentSize() int64 { return 8 * int64(7+len(k.w)) }

// ReadKey deserializes a key for the plan, expanding its A_d through
// rows. The header must be the plan's before anything is allocated, so
// a short upload claiming a huge key costs the reader nothing; versions
// 1 (the per-value matrix) and 2 (the pairs with A_d) are refused. The
// key is then one allocation, filled a row at a time.
func (sp *SwitchPlan) ReadKey(r io.Reader, rows *ring.RowStream) (*KeySwitchKey, error) {
	wr := ring.WordReader{R: bufio.NewReader(r)}
	var hdr [7]uint64
	if err := wr.Words(hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magicKSK {
		return nil, fmt.Errorf("lwe: bad magic %#x", hdr[0])
	}
	if hdr[1] != keyWireVer {
		return nil, fmt.Errorf("lwe: unsupported keyswitch key version %d", hdr[1])
	}
	if want := [5]uint64{sp.Q, sp.Base, uint64(sp.Digits), uint64(sp.N), uint64(sp.Dim)}; [5]uint64(hdr[2:]) != want {
		return nil, fmt.Errorf("lwe: keyswitch key q=%d base=%d digits=%d %d→%d, want q=%d base=%d digits=%d %d→%d",
			hdr[2], hdr[3], hdr[4], hdr[5], hdr[6], sp.Q, sp.Base, sp.Digits, sp.N, sp.Dim)
	}
	var seed [4]uint64
	if err := wr.Words(seed[:]); err != nil {
		return nil, fmt.Errorf("lwe: keyswitch key seed: %w", err)
	}
	k := sp.newKey()
	for i, w := range seed {
		binary.LittleEndian.PutUint64(k.Seed[8*i:], w)
	}
	for d, b := range k.nttB {
		if err := wr.WordsBelow(b, sp.Q); err != nil {
			return nil, fmt.Errorf("lwe: keyswitch key digit %d: %w", d, err)
		}
	}
	k.expand(rows)
	k.forward()
	return k, nil
}
