package ring

import "testing"

func testRing(t testing.TB, logN, limbs int) *Ring {
	t.Helper()
	primes, err := GenerateNTTPrimes(55, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomPoly(r *Ring, seed uint64) Poly {
	s := NewSampler(r, seed)
	p := r.NewPoly()
	s.Uniform(p)
	return p
}

func TestNTTRoundTrip(t *testing.T) {
	for _, logN := range []int{4, 8, 11} {
		r := testRing(t, logN, 3)
		p := randomPoly(r, 42)
		q := p.Clone()
		r.NTT(q)
		r.INTT(q)
		if !p.Equal(q) {
			t.Fatalf("logN=%d NTT round trip mismatch", logN)
		}
	}
}

func TestNTTMatchesNaiveConvolution(t *testing.T) {
	for _, logN := range []int{4, 6, 9} {
		r := testRing(t, logN, 2)
		a := randomPoly(r, 1)
		b := randomPoly(r, 2)

		want := r.NewPoly()
		r.MulPolyNaive(a, b, want)

		an, bn := a.Clone(), b.Clone()
		r.NTT(an)
		r.NTT(bn)
		got := r.NewPoly()
		r.MulCoeffs(an, bn, got)
		r.INTT(got)

		if !got.Equal(want) {
			t.Fatalf("logN=%d NTT convolution != naive negacyclic convolution", logN)
		}
	}
}

func TestNTTNegacyclicWrap(t *testing.T) {
	// X^(N-1) · X = X^N = -1: the product must be the constant -1.
	r := testRing(t, 5, 1)
	n := r.N
	a := r.NewPoly()
	b := r.NewPoly()
	for i := range r.Moduli {
		a.Coeffs[i][n-1] = 1
		b.Coeffs[i][1] = 1
	}
	r.NTT(a)
	r.NTT(b)
	out := r.NewPoly()
	r.MulCoeffs(a, b, out)
	r.INTT(out)
	for i, m := range r.Moduli {
		if out.Coeffs[i][0] != m.Q-1 {
			t.Fatalf("limb %d: constant term %d, want q-1=%d", i, out.Coeffs[i][0], m.Q-1)
		}
		for j := 1; j < n; j++ {
			if out.Coeffs[i][j] != 0 {
				t.Fatalf("limb %d coeff %d nonzero", i, j)
			}
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	r := testRing(t, 7, 2)
	a := randomPoly(r, 10)
	b := randomPoly(r, 11)
	sum := r.NewPoly()
	r.Add(a, b, sum)
	r.NTT(sum)

	an, bn := a.Clone(), b.Clone()
	r.NTT(an)
	r.NTT(bn)
	sum2 := r.NewPoly()
	r.Add(an, bn, sum2)

	if !sum.Equal(sum2) {
		t.Fatal("NTT is not additive")
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	primes, err := GenerateNTTPrimes(50, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if seen[q] {
			t.Fatalf("duplicate prime %d", q)
		}
		seen[q] = true
		if !IsPrime(q) {
			t.Fatalf("%d is not prime", q)
		}
		if (q-1)%(2<<12) != 0 {
			t.Fatalf("%d not 1 mod 2N", q)
		}
		if q>>49 == 0 || q>>50 != 0 {
			t.Fatalf("%d is not 50 bits", q)
		}
	}
	if _, err := GenerateNTTPrimes(3, 12, 1); err == nil {
		t.Fatal("expected error for tiny bit size")
	}
	if _, err := GenerateNTTPrimes(10, 12, 50); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestRootOfUnityOrders(t *testing.T) {
	for _, q := range []uint64{12289, 65537} {
		m := NewModulus(q)
		for n := uint64(2); n <= 128 && (q-1)%n == 0; n *= 2 {
			psi := RootOfUnity(q, n)
			if m.Pow(psi, n) != 1 {
				t.Fatalf("psi^%d != 1 mod %d", n, q)
			}
			if m.Pow(psi, n/2) == 1 {
				t.Fatalf("psi order divides %d mod %d: not primitive", n/2, q)
			}
		}
	}
}

func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{12, 13, 15} {
		r := testRing(b, logN, 1)
		p := randomPoly(r, 9)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p)
			}
		})
	}
}

// BenchmarkNTTSchedule times the production schedule per single-limb
// transform, at the benchmark workloads' rings (N = 2^7, 2^9, 2^11) and
// one larger size.
func BenchmarkNTTSchedule(b *testing.B) {
	for _, logN := range []int{7, 9, 11, 13} {
		r := testRing(b, logN, 1)
		p := randomPoly(r, 9)
		tab := r.Tables[0]
		b.Run("fwd/"+sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.Forward(p.Coeffs[0])
			}
		})
		b.Run("inv/"+sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.Inverse(p.Coeffs[0])
			}
		})
	}
}

func sizeName(logN int) string {
	return "N=2^" + string(rune('0'+logN/10)) + string(rune('0'+logN%10))
}

func BenchmarkMulCoeffs(b *testing.B) {
	r := testRing(b, 13, 4)
	p := randomPoly(r, 1)
	q := randomPoly(r, 2)
	out := r.NewPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulCoeffs(p, q, out)
	}
}
