package core

import (
	"bytes"
	"testing"

	"athena/internal/lwe"
)

// fuzzParams is the smallest ring the plan accepts (N = 4) with four
// limbs, so that the FBS level (3) and the post level (2) differ, and an
// LWE dimension of 2, so that the packer reads a Galois key of its own.
// A bundle is 1 672 bytes.
func fuzzParams() Params {
	p := TestParams()
	p.LogN, p.QiNum, p.LWEDim = 2, 4, 2
	return p
}

// FuzzReadEvalKeys feeds arbitrary bytes to the bundle reader, the one
// check a server makes before it evaluates under uploaded keys. The
// reader must never panic, and a bundle it accepts must stand up an
// evaluation engine that runs every key-reading step — pack, the LUT
// ladder, S2C, Step ③'s switch and extraction — and whose re-export
// reads back to the same engine. The checked-in corpus
// (testdata/fuzz/FuzzReadEvalKeys) holds today's bundle (version 3, the
// keys as seeds and B rows), the full-chain layout, bundles refused for
// their key levels — a key below its level of use, of level 0, above the
// chain, or with a polynomial of fewer limbs than its level — one cut
// inside a key's seed, and bundles of versions 1 (the per-value matrix
// key) and 2 (the A rows on the wire), all at fuzzParams.
func FuzzReadEvalKeys(f *testing.F) {
	p := fuzzParams()
	f.Fuzz(func(t *testing.T, data []byte) {
		ek, err := ReadEvalKeys(p, bytes.NewReader(data))
		if err != nil {
			return
		}
		eng, err := NewEvaluationEngine(p, ek)
		if err != nil {
			t.Fatalf("ReadEvalKeys accepted a bundle NewEvaluationEngine refuses: %v", err)
		}
		lut, err := eng.w0.lut(func(x int64) int64 { return max(x, 0) })
		if err != nil {
			t.Fatal(err)
		}
		ct, err := eng.w0.packFBS([]lwe.Ciphertext{eng.zero}, 1, lut)
		if err != nil {
			t.Fatalf("packing and LUT under accepted keys: %v", err)
		}
		if err := eng.w0.toCoeffs(ct, ct); err != nil {
			t.Fatalf("S2C under accepted keys: %v", err)
		}
		if _, err := eng.w0.extract(ct, []int{0, eng.Ctx.N - 1}); err != nil {
			t.Fatalf("extraction under accepted keys: %v", err)
		}
		var out, again bytes.Buffer
		if err := eng.WriteEvalKeys(&out); err != nil {
			t.Fatal(err)
		}
		back, err := NewEvaluationEngineFromReader(p, bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-exported bundle refused: %v", err)
		}
		if err := back.WriteEvalKeys(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("re-export is not a fixed point")
		}
	})
}
