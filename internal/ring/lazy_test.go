package ring

import (
	"math/rand/v2"
	"testing"
)

// The lazy-reduction transforms promise bit-identity with a fully-reduced
// reference NTT: same tables, same layer order, but every butterfly
// output reduced to canonical [0, q) immediately. These tests pin that
// contract across the test-scale prime chain, the small classic primes,
// the 61-bit boundary, and every ring size the layer bookkeeping
// distinguishes (radix-2 peel, radix-4 stages, fused first/last layers).

// refForward is the fully-reduced Cooley-Tukey negacyclic forward NTT.
func refForward(t *NTTTable, p []uint64) {
	m := t.M
	n := t.N
	for length := n >> 1; length >= 1; length >>= 1 {
		for start, k := 0, n/(length<<1); start < n; start, k = start+(length<<1), k+1 {
			w := t.psiFwd[k]
			for i := start; i < start+length; i++ {
				u, v := p[i], m.Mul(p[i+length], w)
				p[i] = m.Add(u, v)
				p[i+length] = m.Sub(u, v)
			}
		}
	}
}

// refInverse is the fully-reduced Gentleman-Sande inverse, with the 1/N
// scaling as a separate final pass.
func refInverse(t *NTTTable, p []uint64) {
	m := t.M
	n := t.N
	for length := 1; length <= n>>1; length <<= 1 {
		for start, k := 0, n/(length<<1); start < n; start, k = start+(length<<1), k+1 {
			w := t.psiInv[k]
			for i := start; i < start+length; i++ {
				u, v := p[i], p[i+length]
				p[i] = m.Add(u, v)
				p[i+length] = m.Mul(m.Sub(u, v), w)
			}
		}
	}
	for i := range p {
		p[i] = m.Mul(p[i], t.nInv)
	}
}

// lazyTestPrimes returns the moduli the bit-identity sweep covers for a
// given ring size: the full test-scale chain (50-bit), the classic small
// primes when they support 2N-th roots, and a prime at the 61-bit
// MaxModulusBits boundary where the 4q headroom argument is tightest.
func lazyTestPrimes(t *testing.T, logN int) []uint64 {
	t.Helper()
	ps, err := GenerateNTTPrimes(50, logN, 6)
	if err != nil {
		t.Fatal(err)
	}
	boundary, err := GenerateNTTPrimes(61, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps = append(ps, boundary...)
	n := uint64(1) << uint(logN)
	for _, q := range []uint64{12289, 65537} {
		if (q-1)%(2*n) == 0 {
			ps = append(ps, q)
		}
	}
	return ps
}

// lazyTestInputs generates the adversarial coefficient vectors: impulse,
// all-zero, all q-1 (maximal lazy growth), alternating extremes, and
// seeded random fills.
func lazyTestInputs(n int, q uint64) [][]uint64 {
	var ins [][]uint64
	impulse := make([]uint64, n)
	impulse[n-1] = q - 1
	ins = append(ins, impulse, make([]uint64, n))
	maxed := make([]uint64, n)
	alt := make([]uint64, n)
	for i := range maxed {
		maxed[i] = q - 1
		if i&1 == 0 {
			alt[i] = q - 1
		}
	}
	ins = append(ins, maxed, alt)
	rng := rand.New(rand.NewPCG(uint64(n), q))
	for s := 0; s < 3; s++ {
		r := make([]uint64, n)
		for i := range r {
			r[i] = rng.Uint64() % q
		}
		ins = append(ins, r)
	}
	return ins
}

func TestLazyNTTBitIdentity(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10} {
		n := 1 << uint(logN)
		for _, q := range lazyTestPrimes(t, logN) {
			tab := NewNTTTable(q, logN)
			for ci, in := range lazyTestInputs(n, q) {
				got := append([]uint64(nil), in...)
				want := append([]uint64(nil), in...)
				tab.Forward(got)
				refForward(tab, want)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("forward logN=%d q=%d case=%d: coeff %d = %d, reference %d", logN, q, ci, i, got[i], want[i])
					}
				}
				// Inverse bit-identity on the (arbitrary canonical) vector.
				got = append([]uint64(nil), in...)
				want = append([]uint64(nil), in...)
				tab.Inverse(got)
				refInverse(tab, want)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("inverse logN=%d q=%d case=%d: coeff %d = %d, reference %d", logN, q, ci, i, got[i], want[i])
					}
				}
				// And the round trip is the identity.
				rt := append([]uint64(nil), in...)
				tab.Forward(rt)
				tab.Inverse(rt)
				for i := range rt {
					if rt[i] != in[i] {
						t.Fatalf("roundtrip logN=%d q=%d case=%d: coeff %d = %d, want %d", logN, q, ci, i, rt[i], in[i])
					}
				}
			}
		}
	}
}

// TestLazyNTTOutputCanonical checks the exported entry points never leak
// extended-range residues, even from maximal inputs.
func TestLazyNTTOutputCanonical(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 4, 5, 7, 10} {
		n := 1 << uint(logN)
		for _, q := range lazyTestPrimes(t, logN) {
			tab := NewNTTTable(q, logN)
			for ci, in := range lazyTestInputs(n, q) {
				p := append([]uint64(nil), in...)
				tab.Forward(p)
				for i, v := range p {
					if v >= q {
						t.Fatalf("forward logN=%d q=%d case=%d: coeff %d = %d out of range", logN, q, ci, i, v)
					}
				}
				tab.Inverse(p)
				for i, v := range p {
					if v >= q {
						t.Fatalf("inverse logN=%d q=%d case=%d: coeff %d = %d out of range", logN, q, ci, i, v)
					}
				}
			}
		}
	}
}

// TestVecKernelsMatchScalar pins every vector kernel to the scalar
// Modulus method it batches, including at the 61-bit boundary.
func TestVecKernelsMatchScalar(t *testing.T) {
	const n = 1 << 10
	for _, q := range lazyTestPrimes(t, 10) {
		m := NewModulus(q)
		rng := rand.New(rand.NewPCG(q, 77))
		a := make([]uint64, n)
		b := make([]uint64, n)
		raw := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
			b[i] = rng.Uint64() % q
			raw[i] = rng.Uint64() // arbitrary, for ReduceVec / Shoup inputs
		}
		// Force extremes into the first slots.
		a[0], b[0] = q-1, q-1
		a[1], b[1] = 0, q-1
		raw[0], raw[1] = ^uint64(0), 0

		out := make([]uint64, n)
		check := func(name string, want func(i int) uint64) {
			t.Helper()
			for i := range out {
				if w := want(i); out[i] != w {
					t.Fatalf("%s q=%d: index %d = %d, want %d", name, q, i, out[i], w)
				}
			}
		}

		m.AddVec(a, b, out)
		check("AddVec", func(i int) uint64 { return m.Add(a[i], b[i]) })
		m.SubVec(a, b, out)
		check("SubVec", func(i int) uint64 { return m.Sub(a[i], b[i]) })
		m.NegVec(a, out)
		check("NegVec", func(i int) uint64 { return m.Neg(a[i]) })
		m.ReduceVec(raw, out)
		check("ReduceVec", func(i int) uint64 { return m.Reduce(raw[i]) })
		m.MulVec(a, b, out)
		check("MulVec", func(i int) uint64 { return m.Mul(a[i], b[i]) })

		copy(out, b)
		m.MulAddVec(a, b, out)
		check("MulAddVec", func(i int) uint64 { return m.Add(b[i], m.Mul(a[i], b[i])) })

		w := a[2] // fixed canonical operand
		ws := m.ShoupPrecomp(w)
		m.MulShoupVec(raw, w, ws, out)
		check("MulShoupVec", func(i int) uint64 { return m.MulShoup(raw[i], w, ws) })

		m.MulShoupLazyVec(raw, w, ws, out)
		for i := range out {
			if out[i] >= 2*q {
				t.Fatalf("MulShoupLazyVec q=%d: index %d = %d outside [0, 2q)", q, i, out[i])
			}
			if r := out[i] % q; r != m.MulShoup(raw[i], w, ws) {
				t.Fatalf("MulShoupLazyVec q=%d: index %d incongruent", q, i)
			}
		}

		copy(out, b)
		m.MulShoupAddVec(a, w, ws, out)
		check("MulShoupAddVec", func(i int) uint64 { return m.Add(b[i], m.MulShoup(a[i], w, ws)) })

		bs := make([]uint64, n)
		m.ShoupPrecompVec(b, bs)
		for i := range bs {
			if bs[i] != m.ShoupPrecomp(b[i]) {
				t.Fatalf("ShoupPrecompVec q=%d: index %d = %d, want %d", q, i, bs[i], m.ShoupPrecomp(b[i]))
			}
		}
		m.MulShoupElemVec(raw, b, bs, out)
		check("MulShoupElemVec", func(i int) uint64 { return m.MulShoup(raw[i], b[i], bs[i]) })

		copy(out, a)
		m.MulShoupElemAddVec(raw, b, bs, out)
		check("MulShoupElemAddVec", func(i int) uint64 { return m.Add(a[i], m.MulShoup(raw[i], b[i], bs[i])) })

		rows := [][]uint64{a, b, a}
		wsum := []uint64{a[2], b[3], q - 1} // extremes included
		sumRef := func(i int) uint64 {
			var s uint64
			for k := range rows {
				s = m.Add(s, m.Mul(rows[k][i], wsum[k]))
			}
			return s
		}
		// Packed at an offset, in tiles that do not divide the length.
		tile := make([]uint64, 3*len(rows))
		for j0 := 0; j0 < n; j0 += 3 {
			cols := min(3, n-j0)
			PackTile(rows, j0, cols, tile)
			m.MulSumTile(tile, [][]uint64{wsum}, [][]uint64{out[j0 : j0+cols]})
		}
		check("MulSumTile", sumRef)

		rows[0] = raw
		// MulSumVec takes unreduced rows and weights: the column sum is a
		// full 128-bit value whose high word can exceed q.
		wide := []uint64{a[2], ^uint64(0), 1}
		m.MulSumVec(rows, wide, out)
		check("MulSumVec", func(i int) uint64 {
			var s uint64
			for k := range rows {
				s = m.Add(s, m.Mul(m.Reduce(rows[k][i]), m.Reduce(wide[k])))
			}
			return s
		})

		lazy := make([]uint64, n)
		for i := range lazy {
			lazy[i] = a[i] + b[i]%q // < 2q
		}
		m.Reduce2QVec(lazy, out)
		check("Reduce2QVec", func(i int) uint64 { return m.Reduce2Q(lazy[i]) })

		m.AddLazyVec(a, b, out)
		check("AddLazyVec", func(i int) uint64 { return a[i] + b[i] })
	}
}
