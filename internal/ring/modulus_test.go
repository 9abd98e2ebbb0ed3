package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// testPrimes covers small, Fermat, and near-word-size NTT-friendly moduli.
var testPrimes = func() []uint64 {
	big60, err := GenerateNTTPrimes(60, 13, 2)
	if err != nil {
		panic(err)
	}
	return []uint64{12289, 65537, big60[0], big60[1]}
}()

func TestNewModulusRejectsBadInput(t *testing.T) {
	for _, q := range []uint64{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) did not panic", q)
				}
			}()
			NewModulus(q)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewModulus(2^62) did not panic")
			}
		}()
		NewModulus(1 << 62)
	}()
}

func TestModulusArithmeticAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, q := range testPrimes {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 2000; i++ {
			a := rng.Uint64N(q)
			b := rng.Uint64N(q)
			ba := new(big.Int).SetUint64(a)
			bb := new(big.Int).SetUint64(b)

			if got, want := m.Add(a, b), new(big.Int).Mod(new(big.Int).Add(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.Sub(a, b), new(big.Int).Mod(new(big.Int).Sub(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.Mul(a, b), new(big.Int).Mod(new(big.Int).Mul(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

func TestModulusMulShoup(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, q := range testPrimes {
		m := NewModulus(q)
		for i := 0; i < 1000; i++ {
			a := rng.Uint64N(q)
			w := rng.Uint64N(q)
			ws := m.ShoupPrecomp(w)
			if got, want := m.MulShoup(a, w, ws), m.Mul(a, w); got != want {
				t.Fatalf("q=%d MulShoup(%d,%d)=%d want %d", q, a, w, got, want)
			}
		}
	}
}

func TestModulusPowInv(t *testing.T) {
	for _, q := range testPrimes {
		m := NewModulus(q)
		rng := rand.New(rand.NewPCG(q, 7))
		for i := 0; i < 200; i++ {
			a := rng.Uint64N(q-1) + 1
			inv := m.Inv(a)
			if m.Mul(a, inv) != 1 {
				t.Fatalf("q=%d Inv(%d) broken", q, a)
			}
		}
		if m.Pow(2, 0) != 1 {
			t.Fatalf("q=%d Pow(2,0) != 1", q)
		}
		// Fermat's little theorem.
		if m.Pow(3%q, q-1) != 1 {
			t.Fatalf("q=%d Fermat failed", q)
		}
	}
}

func TestModulusReduceWideProperty(t *testing.T) {
	m := NewModulus(testPrimes[2])
	f := func(a, b uint64) bool {
		a %= m.Q
		b %= m.Q
		hiP, loP := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		want := new(big.Int).Mod(new(big.Int).Mul(hiP, loP), new(big.Int).SetUint64(m.Q)).Uint64()
		return m.Mul(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestModulusReduceWideAnyHigh pins ReduceWide on 128-bit values whose
// high word is not below q, which the lazy column sums of MulSumVec and
// the RNS base-conversion kernels produce.
func TestModulusReduceWideAnyHigh(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var x, qb big.Int
	for _, q := range testPrimes {
		m := NewModulus(q)
		qb.SetUint64(q)
		for i := 0; i < 5000; i++ {
			hi, lo := rng.Uint64(), rng.Uint64()
			if i == 0 {
				hi, lo = ^uint64(0), ^uint64(0)
			}
			x.SetUint64(hi)
			x.Lsh(&x, 64).Add(&x, new(big.Int).SetUint64(lo))
			if got, want := m.ReduceWide(hi, lo), x.Mod(&x, &qb).Uint64(); got != want {
				t.Fatalf("q=%d ReduceWide(%#x, %#x) = %d, want %d", q, hi, lo, got, want)
			}
		}
	}
}

func TestModulusCentered(t *testing.T) {
	m := NewModulus(17)
	cases := map[uint64]int64{0: 0, 1: 1, 8: 8, 9: -8, 16: -1}
	for in, want := range cases {
		if got := m.Centered(in); got != want {
			t.Errorf("Centered(%d)=%d want %d", in, got, want)
		}
	}
	if got := m.ReduceInt64(-1); got != 16 {
		t.Errorf("ReduceInt64(-1)=%d want 16", got)
	}
	if got := m.ReduceInt64(-35); got != 16 {
		t.Errorf("ReduceInt64(-35)=%d want 16", got)
	}
}
