package rns

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"athena/internal/ring"
)

func testBasis(t testing.TB, bits, logN, limbs int) *Basis {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(bits, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	return NewBasis(primes)
}

func TestReconstructRoundTrip(t *testing.T) {
	b := testBasis(t, 50, 10, 4)
	rng := rand.New(rand.NewPCG(1, 1))
	res := make([]uint64, b.Len())
	back := make([]uint64, b.Len())
	var v big.Int
	for i := 0; i < 500; i++ {
		for j, m := range b.Moduli {
			res[j] = rng.Uint64N(m.Q)
		}
		b.Reconstruct(res, &v)
		if v.Sign() < 0 || v.Cmp(b.Q) >= 0 {
			t.Fatal("reconstructed value out of [0, Q)")
		}
		b.Reduce(&v, back)
		for j := range res {
			if res[j] != back[j] {
				t.Fatalf("round trip mismatch limb %d", j)
			}
		}
	}
}

func TestReconstructCentered(t *testing.T) {
	b := testBasis(t, 30, 8, 3)
	// Encode small signed values and confirm they come back exactly.
	vals := []int64{0, 1, -1, 12345, -12345, 1 << 40, -(1 << 40)}
	res := make([]uint64, b.Len())
	var v big.Int
	for _, want := range vals {
		bw := big.NewInt(want)
		b.Reduce(bw, res)
		b.ReconstructCentered(res, &v)
		if v.Int64() != want {
			t.Fatalf("centered reconstruct of %d gave %s", want, v.String())
		}
	}
}

// ScaleAndRound computes round(scaleNum·x/scaleDen) for the centered
// value x of each coefficient of p over b, reduced into out over target:
// the big-integer definition of a rescale, one coefficient at a time. It
// is the oracle of a Scaler followed by a Converter, and of a Dropper.
func (b *Basis) ScaleAndRound(p ring.Poly, scaleNum, scaleDen *big.Int, target *Basis, out ring.Poly) {
	den2 := new(big.Int).Lsh(scaleDen, 1)
	res, outRes := make([]uint64, b.Len()), make([]uint64, target.Len())
	var x, r big.Int
	for j := range p.Coeffs[0] {
		target.Reduce(b.scaleRound(at(p, j, res), scaleNum, scaleDen, den2, &x, &r), outRes)
		for i := range out.Coeffs {
			out.Coeffs[i][j] = outRes[i]
		}
	}
}

// ScaleAndRoundToUint computes round(scaleNum·x/scaleDen) mod outMod for
// the centered value x of each coefficient of p over b: the oracle of a
// WordScaler.
func (b *Basis) ScaleAndRoundToUint(p ring.Poly, scaleNum, scaleDen *big.Int, outMod uint64, out []uint64) {
	den2 := new(big.Int).Lsh(scaleDen, 1)
	om := new(big.Int).SetUint64(outMod)
	res := make([]uint64, b.Len())
	var x, r big.Int
	for j := range p.Coeffs[0] {
		out[j] = b.scaleRound(at(p, j, res), scaleNum, scaleDen, den2, &x, &r).Mod(&r, om).Uint64()
	}
}

// TestWordScalerMatchesRational checks decryption's scaling, round(t·x/Q)
// mod t, against rational arithmetic written out independently of the
// package's own big-integer definition.
func TestWordScalerMatchesRational(t *testing.T) {
	b := testBasis(t, 40, 6, 3)
	r, _ := ring.NewRing(6, b.Values())
	tSmall := uint64(257)
	tb := new(big.Int).SetUint64(tSmall)
	ws, err := NewWordScaler(b, tSmall)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(3, 3))
	p := r.NewPoly()
	// Random residues.
	for i, m := range b.Moduli {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64N(m.Q)
		}
	}
	out := make([]uint64, r.N)
	ws.ScaleRound(p, out, NewScratch(b.Len(), r.N))

	scratch := make([]uint64, b.Len())
	var v big.Int
	for j := 0; j < r.N; j++ {
		for i := range p.Coeffs {
			scratch[i] = p.Coeffs[i][j]
		}
		b.ReconstructCentered(scratch, &v)
		num := new(big.Int).Mul(&v, tb)
		num.Lsh(num, 1)
		num.Add(num, b.Q)
		den := new(big.Int).Lsh(b.Q, 1)
		num.Div(num, den)
		num.Mod(num, tb)
		if num.Uint64() != out[j] {
			t.Fatalf("coeff %d: got %d want %s", j, out[j], num.String())
		}
	}
}

func TestWordScalerSmallCases(t *testing.T) {
	// Basis {12289}: round(5·v/12289) mod 5.
	b := NewBasis([]uint64{12289})
	r, _ := ring.NewRing(1, []uint64{12289})
	p := r.NewPoly()
	// v = 2458 ≈ Q/5: round(5·2458/12289) = round(1.00008) = 1.
	p.Coeffs[0][0] = 2458
	p.Coeffs[0][1] = 1229 // Q/10 → 0.50002 → rounds to 1 (half up)
	ws, err := NewWordScaler(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, r.N)
	ws.ScaleRound(p, out, NewScratch(1, r.N))
	if out[0] != 1 {
		t.Fatalf("got %d want 1", out[0])
	}
	if out[1] != 1 {
		t.Fatalf("got %d want 1 (round half up)", out[1])
	}
}

func TestDecomposeDigitsReconstruct(t *testing.T) {
	// Σ_i d_i · QiHat_i ≡ p (mod Q), coefficientwise.
	b := testBasis(t, 45, 5, 3)
	r, _ := ring.NewRing(5, b.Values())
	rng := rand.New(rand.NewPCG(4, 4))
	p := r.NewPoly()
	for i, m := range b.Moduli {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64N(m.Q)
		}
	}
	digits := make([]ring.Poly, b.Len())
	for i := range digits {
		digits[i] = r.NewPoly()
		b.DecomposeDigitInto(p, i, digits[i])
	}
	// Recombine: for each limb l, Σ_i d_i[l][j]·(QiHat_i mod q_l) == p[l][j].
	for l, m := range b.Moduli {
		for j := 0; j < r.N; j++ {
			var acc uint64
			for i := range digits {
				hatMod := new(big.Int).Mod(b.QiHat[i], new(big.Int).SetUint64(m.Q)).Uint64()
				acc = m.Add(acc, m.Mul(digits[i].Coeffs[l][j], hatMod))
			}
			if acc != p.Coeffs[l][j] {
				t.Fatalf("limb %d coeff %d: recombined %d want %d", l, j, acc, p.Coeffs[l][j])
			}
		}
	}
	// Digits are small: every limb of a digit holds the same value < q_i.
	for i, d := range digits {
		qi := b.Moduli[i].Q
		for j := 0; j < r.N; j++ {
			v := d.Coeffs[0][j]
			if v >= qi {
				t.Fatalf("digit %d coeff %d = %d not below q_i", i, j, v)
			}
		}
	}
}

func TestScalarMod(t *testing.T) {
	b := testBasis(t, 30, 4, 2)
	delta := new(big.Int).Div(b.Q, big.NewInt(65537))
	rns := b.ScalarMod(delta)
	for i, m := range b.Moduli {
		want := new(big.Int).Mod(delta, new(big.Int).SetUint64(m.Q)).Uint64()
		if rns[i] != want {
			t.Fatalf("limb %d: %d want %d", i, rns[i], want)
		}
	}
}

func TestReducePolyAndReconstructPoly(t *testing.T) {
	b := testBasis(t, 40, 5, 3)
	r, _ := ring.NewRing(5, b.Values())
	vals := make([]*big.Int, 10)
	for i := range vals {
		vals[i] = big.NewInt(int64(i*1000 - 4000))
	}
	p := r.NewPoly()
	b.ReducePoly(vals, p)
	back := b.ReconstructPoly(p)
	for i := range vals {
		if back[i].Cmp(vals[i]) != 0 {
			t.Fatalf("coeff %d: %s want %s", i, back[i], vals[i])
		}
	}
	// Coefficients beyond len(vals) must be zero.
	for i := len(vals); i < r.N; i++ {
		if back[i].Sign() != 0 {
			t.Fatalf("tail coeff %d nonzero", i)
		}
	}
}

func TestBasisValuesAndLen(t *testing.T) {
	primes, _ := ring.GenerateNTTPrimes(30, 4, 3)
	b := NewBasis(primes)
	if b.Len() != 3 {
		t.Fatal("Len wrong")
	}
	vs := b.Values()
	for i, q := range primes {
		if vs[i] != q {
			t.Fatal("Values wrong")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty basis accepted")
		}
	}()
	NewBasis(nil)
}

func TestReconstructPanicsOnLengthMismatch(t *testing.T) {
	b := testBasis(t, 30, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	var v big.Int
	b.Reconstruct([]uint64{1}, &v)
}
