package ring

import (
	"encoding/binary"
	"math/big"
	"testing"
)

// tilePrimes are NTT primes just below 2^50, 2^55, 2^60 and 2^61: the
// limb sizes in use, the size at which 256 rows sit on the 128-bit
// bound, and the largest modulus the package accepts.
func tilePrimes(t testing.TB) [4]uint64 {
	t.Helper()
	var qs [4]uint64
	for i, bits := range [4]int{50, 55, 60, 61} {
		ps, err := GenerateNTTPrimes(bits, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = ps[0]
	}
	return qs
}

// checkTile packs rows in tiles of cols columns, runs MulSumTile for the
// weight rows w and compares every output with the math/big column sum.
func checkTile(t testing.TB, q uint64, rows, w [][]uint64, n, cols int) {
	t.Helper()
	m := NewModulus(q)
	outs := make([][]uint64, len(w))
	for g := range outs {
		outs[g] = make([]uint64, n)
	}
	tile := make([]uint64, cols*len(rows))
	window := make([][]uint64, len(w))
	for j0 := 0; j0 < n; j0 += cols {
		j1 := min(j0+cols, n)
		PackTile(rows, j0, j1-j0, tile)
		for g := range outs {
			window[g] = outs[g][j0:j1]
		}
		m.MulSumTile(tile, w, window)
	}
	bq := new(big.Int).SetUint64(q)
	sum, term, x := new(big.Int), new(big.Int), new(big.Int)
	for g := range w {
		for j := 0; j < n; j++ {
			sum.SetUint64(0)
			for k := range rows {
				sum.Add(sum, term.Mul(term.SetUint64(rows[k][j]), x.SetUint64(w[g][k])))
			}
			if want := sum.Mod(sum, bq).Uint64(); outs[g][j] != want {
				t.Fatalf("q=%d K=%d output %d column %d: got %d, want %d", q, len(rows), g, j, outs[g][j], want)
			}
		}
	}
}

// TestSumTerms: SumTerms() products of values below q fit a 128-bit
// accumulator and one more does not; the counts the kernel's doc comment
// quotes hold.
func TestSumTerms(t *testing.T) {
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for i, q := range tilePrimes(t) {
		n := NewModulus(q).SumTerms()
		q2 := new(big.Int).SetUint64(q)
		q2.Mul(q2, q2)
		if n < 1<<62 {
			if lo := new(big.Int).Mul(big.NewInt(int64(n)), q2); lo.Cmp(two128) > 0 {
				t.Errorf("q=%d: %d·q² exceeds 2^128", q, n)
			}
			if hi := new(big.Int).Mul(big.NewInt(int64(n)+1), q2); hi.Cmp(two128) <= 0 {
				t.Errorf("q=%d: %d·q² still fits 2^128", q, n+1)
			}
		}
		switch {
		case i == 3 && n != 64, i == 2 && (n < 256 || n > 257), i == 1 && n < 1<<17:
			t.Errorf("q=%d (%d bits): SumTerms = %d", q, []int{50, 55, 60, 61}[i], n)
		}
	}
	if n := NewModulus(65537).SumTerms(); n != 1<<62 {
		t.Errorf("q=65537: SumTerms = %d, want the cap", n)
	}
}

// TestMulSumTileTermBound is the boundary of the 128-bit column sum:
// every row at q − 1 against the largest weight a caller can pass, also
// q − 1, for row counts on both sides of SumTerms() and at the 256 and
// 257 rows of an FBS baby step at t = 65537 — where a 60-bit limb sits
// exactly on 2^128 and a 61-bit one is 4× past it. An accumulator that
// did not fold would wrap silently; the math/big sum tells.
func TestMulSumTileTermBound(t *testing.T) {
	const n = 5
	for _, q := range tilePrimes(t) {
		st := NewModulus(q).SumTerms()
		for _, kn := range []int{63, 64, 65, 128, 129, 255, 256, 257, 258, 513} {
			if kn > 258 && st > 256 {
				continue
			}
			rows := make([][]uint64, kn)
			for k := range rows {
				rows[k] = make([]uint64, n)
				for j := range rows[k] {
					rows[k][j] = q - 1
				}
			}
			w := make([][]uint64, 3) // a pair and the odd output
			for g := range w {
				w[g] = make([]uint64, kn)
				for k := range w[g] {
					w[g][k] = q - 1
				}
			}
			// The third output alternates the extremes so that its folds do
			// not all land on the same residue.
			for k := 0; k < kn; k += 2 {
				w[2][k] = q - 2
			}
			checkTile(t, q, rows, w, n, n)
		}
	}
}

// tileCase derives a MulSumTile instance from bytes: a prime, K ≤ 299
// rows, 1–9 columns, 1–5 outputs, then rows and weights as q − 1 − (x mod
// q) from consecutive 8-byte words, so missing bytes read as the extreme
// q − 1.
func tileCase(t testing.TB, data []byte) (q uint64, rows, w [][]uint64, n int) {
	var hdr [5]byte
	copy(hdr[:], data)
	data = data[min(len(data), len(hdr)):]
	q = tilePrimes(t)[[3]int{0, 1, 3}[hdr[0]%3]]
	kn := (int(hdr[1]) | int(hdr[2]&1)<<8) % 300
	n, g := 1+int(hdr[3]%9), 1+int(hdr[4]%5)
	next := func() uint64 {
		var word [8]byte
		copy(word[:], data)
		data = data[min(len(data), 8):]
		return q - 1 - binary.LittleEndian.Uint64(word[:])%q
	}
	rows, w = make([][]uint64, kn), make([][]uint64, g)
	for i := range w {
		w[i] = make([]uint64, kn)
		for k := range w[i] {
			w[i][k] = next()
		}
	}
	for k := range rows {
		rows[k] = make([]uint64, n)
		for j := range rows[k] {
			rows[k][j] = next()
		}
	}
	return q, rows, w, n
}

// FuzzMulSumTile: the tile kernel equals the math/big column sums at
// 50-, 55- and 61-bit primes for byte-derived rows and weights, whole and
// in tiles of three columns. The checked-in corpus entry is 65 rows at a
// 61-bit prime with everything at q − 1: one row past the term bound.
func FuzzMulSumTile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 110, 0, 7, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 1, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, rows, w, n := tileCase(t, data)
		checkTile(t, q, rows, w, n, n)
		checkTile(t, q, rows, w, n, 3)
	})
}
