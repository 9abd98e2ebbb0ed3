package ring

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand/v2"
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

// checkPair runs MulSumPairVec over n columns and compares both outputs
// with the sum of per-term MulVec products added with AddVec.
func checkPair(t testing.TB, m Modulus, a, b0, b1 [][]uint64, n int) {
	t.Helper()
	out0, out1 := make([]uint64, n), make([]uint64, n)
	// Stale words in the outputs must not leak into the sums.
	for j := range out0 {
		out0[j], out1[j] = m.Q-1, m.Q-1
	}
	m.MulSumPairVec(a, b0, b1, out0, out1)
	ref0, ref1, prod := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for k := range a {
		m.MulVec(a[k][:n], b0[k][:n], prod)
		m.AddVec(ref0, prod, ref0)
		m.MulVec(a[k][:n], b1[k][:n], prod)
		m.AddVec(ref1, prod, ref1)
	}
	for j := range ref0 {
		if out0[j] != ref0[j] || out1[j] != ref1[j] {
			t.Fatalf("q=%d K=%d column %d: got (%d, %d), want (%d, %d)", m.Q, len(a), j, out0[j], out1[j], ref0[j], ref1[j])
		}
	}
}

// pairRows returns k rows of n words, each from fill.
func pairRows(k, n int, fill func() uint64) [][]uint64 {
	rows := make([][]uint64, k)
	for i := range rows {
		rows[i] = make([]uint64, n)
		for j := range rows[i] {
			rows[i][j] = fill()
		}
	}
	return rows
}

// TestMulSumPairVecTermBound pins the lazy pair sum to the per-term
// reduced reference where its 128-bit accumulator is tight: every input
// at q − 1 at term counts around SumTerms() (64 at a 61-bit prime, so
// the fold runs) and at counts from none to past the bound, at 50-, 55-,
// 60- and 61-bit primes, random and extreme. 150 columns cover two full
// column blocks and a partial one.
func TestMulSumPairVecTermBound(t *testing.T) {
	const n = 150
	for _, q := range tilePrimes(t) {
		m := NewModulus(q)
		st := m.SumTerms()
		counts := []int{0, 1, 2, 3, 10, 63, 64, 65, 129}
		if st <= 256 {
			counts = append(counts, st-1, st, st+1, 2*st+1)
		}
		top := func() uint64 { return q - 1 }
		rng := rand.New(rand.NewPCG(q, 41))
		random := func() uint64 { return rng.Uint64N(q) }
		for _, kn := range counts {
			checkPair(t, m, pairRows(kn, n, top), pairRows(kn, n, top), pairRows(kn, n, top), n)
			checkPair(t, m, pairRows(kn, n, random), pairRows(kn, n, random), pairRows(kn, n, top), n)
			checkPair(t, m, pairRows(kn, n, random), pairRows(kn, n, random), pairRows(kn, n, random), n)
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

// BenchmarkMulSumPairVec times the lazy pair sum at the shapes that run
// it: a keyswitch's digits at 2 and 9 limbs of N = 2⁹ and at 4 limbs of
// N = 2¹², and the 16 babies of a packer giant step, in ns per product.
func BenchmarkMulSumPairVec(b *testing.B) {
	q := tilePrimes(b)[2]
	m := NewModulus(q)
	rng := rand.New(rand.NewPCG(q, 5))
	random := func() uint64 { return rng.Uint64N(q) }
	for _, sh := range []struct{ k, n int }{{2, 512}, {9, 512}, {16, 512}, {4, 4096}} {
		a, b0, b1 := pairRows(sh.k, sh.n, random), pairRows(sh.k, sh.n, random), pairRows(sh.k, sh.n, random)
		out0, out1 := make([]uint64, sh.n), make([]uint64, sh.n)
		b.Run(fmt.Sprintf("K=%d/N=%d", sh.k, sh.n), func(b *testing.B) {
			for b.Loop() {
				m.MulSumPairVec(a, b0, b1, out0, out1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*sh.k*sh.n), "ns/product")
		})
	}
}
