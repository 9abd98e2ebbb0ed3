package rns

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"athena/internal/ring"
)

// The oracles are the big-integer definitions the word-sized kernels
// must reproduce bit for bit: centered reconstruction, an exact rational
// round half up, reduction.

func oracleConvert(from, to *Basis, residues []uint64) []uint64 {
	var x big.Int
	out := make([]uint64, to.Len())
	to.Reduce(from.ReconstructCentered(residues, &x), out)
	return out
}

// oracleScale returns round(t·x/den) modulo the primes of to, for the
// centered value x of the residues over from.
func oracleScale(from, to *Basis, t uint64, den *big.Int, residues []uint64) []uint64 {
	var x big.Int
	from.ReconstructCentered(residues, &x)
	x.Mul(&x, new(big.Int).SetUint64(t))
	x.Lsh(&x, 1).Add(&x, den)
	x.Div(&x, new(big.Int).Lsh(den, 1)) // Euclidean: floor for either sign
	out := make([]uint64, to.Len())
	to.Reduce(&x, out)
	return out
}

// tensorKit is a prefix level of a ciphertext chain with the extension
// basis package bfv picks for it: 59-bit primes, as few as make
// B > t·N·Q + 2.
type tensorKit struct {
	t        uint64
	n        int
	q, b, qb *Basis
	toB, toQ *Converter
	scale    *Scaler
}

func newTensorKit(tb testing.TB, logN int, qi []uint64, t uint64) *tensorKit {
	tb.Helper()
	k := &tensorKit{t: t, n: 1 << logN, q: NewBasis(qi)}
	bound := new(big.Int).Mul(k.q.Q, new(big.Int).SetUint64(t<<logN))
	bound.Add(bound, big.NewInt(2))
	cand, err := ring.GenerateNTTPrimes(59, logN, bound.BitLen()/58+1+len(qi))
	if err != nil {
		tb.Fatal(err)
	}
	used := map[uint64]bool{}
	for _, q := range qi {
		used[q] = true
	}
	var bi []uint64
	for prod := big.NewInt(1); prod.Cmp(bound) <= 0; cand = cand[1:] {
		if !used[cand[0]] {
			bi = append(bi, cand[0])
			prod.Mul(prod, new(big.Int).SetUint64(cand[0]))
		}
	}
	k.b = NewBasis(bi)
	k.qb = NewBasis(append(append([]uint64(nil), qi...), bi...))
	if k.toB, err = NewConverter(k.q, k.b); err != nil {
		tb.Fatal(err)
	}
	if k.toQ, err = NewConverter(k.b, k.q); err != nil {
		tb.Fatal(err)
	}
	if k.scale, err = NewScaler(k.q, k.b, t); err != nil {
		tb.Fatal(err)
	}
	return k
}

// testChains are the two parameter shapes the benchmark runs: the
// core.TestParams chain and the N = 512, ten 55-bit limb, t = 12289 one.
var testChains = []struct {
	name              string
	logN, bits, limbs int
	t                 uint64
}{
	{"n128_t257", 7, 50, 6, 257},
	{"n512_t12289", 9, 55, 10, 12289},
}

func chainPrimes(tb testing.TB, c int) []uint64 {
	tb.Helper()
	primes, err := ring.GenerateNTTPrimes(testChains[c].bits, testChains[c].logN, testChains[c].limbs)
	if err != nil {
		tb.Fatal(err)
	}
	return primes
}

// forEachLevel runs f on every prefix level 1…L of both chains.
func forEachLevel(t *testing.T, f func(k *tensorKit)) {
	for c, chain := range testChains {
		primes := chainPrimes(t, c)
		for L := 1; L <= chain.limbs; L++ {
			f(newTensorKit(t, chain.logN, primes[:L], chain.t))
		}
	}
}

func newPoly(limbs, n int) ring.Poly {
	p := ring.Poly{Coeffs: make([][]uint64, limbs)}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, n)
	}
	return p
}

// polyOf lays the values out over the basis, one coefficient each.
func polyOf(b *Basis, vals []*big.Int) ring.Poly {
	p := newPoly(b.Len(), len(vals))
	b.ReducePoly(vals, p)
	return p
}

// edgeValues are the values at which a conversion out of a basis of
// product p is most likely to go wrong: 0, ±1, ±⌊p/2⌋ and (p∓1)/2. The
// last four name two residue vectors, the ends of the centered range,
// whose overflow count sits 1/(2p) from its rounding boundary.
func edgeValues(p *big.Int) []*big.Int {
	half := new(big.Int).Rsh(p, 1)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		half, new(big.Int).Neg(half),
		new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(half, big.NewInt(1)),
	}
}

func randomBelow(rng *rand.Rand, p *big.Int) *big.Int {
	buf := make([]byte, (p.BitLen()+7)/8+8)
	for j := range buf {
		buf[j] = byte(rng.Uint32())
	}
	x := new(big.Int).SetBytes(buf)
	return x.Mod(x, p)
}

func randomValues(rng *rand.Rand, p *big.Int, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = randomBelow(rng, p)
	}
	return out
}

// checkColumns compares every coefficient of got with the oracle's.
func checkColumns(t *testing.T, what string, src, got ring.Poly, oracle func(residues []uint64) []uint64) {
	t.Helper()
	res := make([]uint64, src.Level())
	for c := range src.Coeffs[0] {
		want := oracle(at(src, c, res))
		for j := range want {
			if got.Coeffs[j][c] != want[j] {
				t.Fatalf("%s: coefficient %d limb %d = %d, want %d", what, c, j, got.Coeffs[j][c], want[j])
			}
		}
	}
}

// TestRoundFixed pins the rounder on both sides of each of its three
// thresholds: the half, and the margin below it inside which the
// truncation error of the sum could still reach the half.
func TestRoundFixed(t *testing.T) {
	const half = uint64(1) << 63
	for _, limbs := range []int{1, 5, 10, MaxLimbs} {
		margin := uint64(2 * limbs)
		for _, c := range []struct {
			lo      uint64
			up      uint64
			decided bool
		}{
			{0, 0, true},
			{half - margin, 0, true},
			{half - margin + 1, 0, false},
			{half - 1, 0, false},
			{half, 1, true},
			{half + 1, 1, true},
			{^uint64(0), 1, true},
		} {
			up, decided := roundFixed(c.lo, limbs)
			if up != c.up || decided != c.decided {
				t.Errorf("roundFixed(%#x, %d) = (%d, %v), want (%d, %v)", c.lo, limbs, up, decided, c.up, c.decided)
			}
		}
	}
}

// TestConvertMatchesOracle checks both conversions a multiplication uses,
// Q → B and B → Q, on random residues and on the edge values, at every
// level of both chains, and that the two ends of the centered range, and
// nothing else, took the big-integer fallback.
func TestConvertMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	forEachLevel(t, func(k *tensorKit) {
		for _, dir := range []struct {
			what     string
			cv       *Converter
			from, to *Basis
		}{{"Q→B", k.toB, k.q, k.b}, {"B→Q", k.toQ, k.b, k.q}} {
			edges := edgeValues(dir.from.Q)
			src := polyOf(dir.from, append(edges, randomValues(rng, dir.from.Q, 57)...))
			dst := newPoly(dir.to.Len(), len(src.Coeffs[0]))
			sc := NewScratch(dir.from.Len(), len(src.Coeffs[0]))
			dir.cv.Convert(src, dst, sc)
			checkColumns(t, dir.what, src, dst, func(res []uint64) []uint64 {
				return oracleConvert(dir.from, dir.to, res)
			})
			// Over a single word-sized prime 1/(2p) is far above the
			// error bound and fixed point settles even the ends.
			for c := range src.Coeffs[0] {
				if dir.from.Len() == 1 {
					break
				}
				if flagged, edge := sc.top[c] == undecided, c >= 3 && c < len(edges); flagged != edge {
					t.Fatalf("%s level %d: coefficient %d undecided = %v, want %v", dir.what, k.q.Len(), c, flagged, edge)
				}
			}
		}
	})
}

// scaleEdgeValues are edge values of the scaling by t/Q: the edges of
// the Q ∪ B range, ±⌊Q/2⌋, and the two integers around (2n+1)·Q/(2t),
// where t·x/Q is within t/(2Q) of a half.
func scaleEdgeValues(k *tensorKit) (vals []*big.Int, firstHalf int) {
	vals = edgeValues(k.qb.Q)
	halfQ := new(big.Int).Rsh(k.q.Q, 1)
	vals = append(vals, halfQ, new(big.Int).Neg(halfQ))
	firstHalf = len(vals)
	t2 := new(big.Int).SetUint64(2 * k.t)
	for _, n := range []int64{0, 1, -1, 1000, -int64(k.t)} {
		x := new(big.Int).Mul(big.NewInt(2*n+1), k.q.Q)
		x.Div(x, t2)
		vals = append(vals, x, new(big.Int).Add(x, big.NewInt(1)))
	}
	return vals, firstHalf
}

// TestScaleRoundMatchesOracle checks the scaling kernel against
// round(t·x/Q) mod B for random x over all of Q ∪ B and for the edge
// values, and that the values beside a half took the fallback.
func TestScaleRoundMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	forEachLevel(t, func(k *tensorKit) {
		edges, firstHalf := scaleEdgeValues(k)
		src := polyOf(k.qb, append(edges, randomValues(rng, k.qb.Q, 60)...))
		n := len(src.Coeffs[0])
		srcQ, srcB := ring.Poly{Coeffs: src.Coeffs[:k.q.Len()]}, ring.Poly{Coeffs: src.Coeffs[k.q.Len():]}
		dst := newPoly(k.b.Len(), n)
		sc := NewScratch(k.q.Len(), n)
		k.scale.ScaleRound(srcQ, srcB, dst, sc)
		checkColumns(t, "scale", src, dst, func(res []uint64) []uint64 {
			return oracleScale(k.qb, k.b, k.t, k.q.Q, res)
		})
		for c := firstHalf; c < len(edges); c++ {
			if k.q.Len() > 1 && sc.top[c] != undecided {
				t.Fatalf("level %d: coefficient %d beside a half was decided in fixed point", k.q.Len(), c)
			}
		}
		for c := len(edges); c < n; c++ {
			if sc.top[c] == undecided {
				t.Fatalf("level %d: random coefficient %d undecided", k.q.Len(), c)
			}
		}
	})
}

// TestRescaleMatchesScaleAndRound pins the composition a multiplication
// runs, ScaleRound into B then Convert into Q, to the one-step
// Basis.ScaleAndRound it replaced, over the whole range a tensor product
// can reach: |x| ≤ N·(Q−1)²/2.
func TestRescaleMatchesScaleAndRound(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	forEachLevel(t, func(k *tensorKit) {
		bound := new(big.Int).Sub(k.q.Q, big.NewInt(1))
		bound.Mul(bound, bound).Mul(bound, big.NewInt(int64(k.n))).Rsh(bound, 1)
		vals := []*big.Int{big.NewInt(0), bound, new(big.Int).Neg(bound)}
		width := new(big.Int).Lsh(bound, 1)
		for i := 0; i < 61; i++ {
			x := randomBelow(rng, width)
			vals = append(vals, x.Sub(x, bound))
		}
		src := polyOf(k.qb, vals)
		n := len(vals)
		want := newPoly(k.q.Len(), n)
		k.qb.ScaleAndRound(src, new(big.Int).SetUint64(k.t), k.q.Q, k.q, want)

		srcQ, srcB := ring.Poly{Coeffs: src.Coeffs[:k.q.Len()]}, ring.Poly{Coeffs: src.Coeffs[k.q.Len():]}
		mid, got := newPoly(k.b.Len(), n), newPoly(k.q.Len(), n)
		sc := NewScratch(max(k.q.Len(), k.b.Len()), n)
		k.scale.ScaleRound(srcQ, srcB, mid, sc)
		k.toQ.Convert(mid, got, sc)
		if !got.Equal(want) {
			t.Fatalf("level %d: two-step rescale differs from ScaleAndRound", k.q.Len())
		}
	})
}

// TestKernelsRejectLongBases pins the limb bound that keeps the lazy
// 128-bit column sums from overflowing.
func TestKernelsRejectLongBases(t *testing.T) {
	primes, err := ring.GenerateNTTPrimes(30, 4, MaxLimbs+2)
	if err != nil {
		t.Fatal(err)
	}
	long, short := NewBasis(primes[:MaxLimbs+1]), NewBasis(primes[MaxLimbs+1:])
	if _, err := NewConverter(long, short); err == nil {
		t.Error("NewConverter accepted a source basis above MaxLimbs")
	}
	if _, err := NewScaler(long, short, 257); err == nil {
		t.Error("NewScaler accepted a basis above MaxLimbs")
	}
}

// fuzzValues decodes fuzz input into four values related to one integer
// x below p, x, −x, x+1 and −x−1: the low bit of the first byte is the
// sign of x, the rest its big-endian magnitude. The seed corpus under
// testdata/fuzz holds edgeValues and scaleEdgeValues of fuzzKit in this
// encoding.
func fuzzValues(data []byte, p *big.Int) []*big.Int {
	x := new(big.Int)
	if len(data) > 0 {
		x.SetBytes(data[1:]).Mod(x, p)
		if data[0]&1 == 1 {
			x.Neg(x)
		}
	}
	x1 := new(big.Int).Add(x, big.NewInt(1))
	return []*big.Int{x, new(big.Int).Neg(x), x1, new(big.Int).Neg(x1)}
}

// fuzzKit is the full core.TestParams level, shared by both targets.
func fuzzKit(f *testing.F) *tensorKit {
	return newTensorKit(f, testChains[0].logN, chainPrimes(f, 0), testChains[0].t)
}

func FuzzBaseConvert(f *testing.F) {
	k := fuzzKit(f)
	sc := NewScratch(k.q.Len(), 4)
	dst := newPoly(k.b.Len(), 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := polyOf(k.q, fuzzValues(data, k.q.Q))
		k.toB.Convert(src, dst, sc)
		checkColumns(t, "Q→B", src, dst, func(res []uint64) []uint64 {
			return oracleConvert(k.q, k.b, res)
		})
	})
}

func FuzzScaleRound(f *testing.F) {
	k := fuzzKit(f)
	sc := NewScratch(k.q.Len(), 4)
	dst := newPoly(k.b.Len(), 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := polyOf(k.qb, fuzzValues(data, k.qb.Q))
		srcQ, srcB := ring.Poly{Coeffs: src.Coeffs[:k.q.Len()]}, ring.Poly{Coeffs: src.Coeffs[k.q.Len():]}
		k.scale.ScaleRound(srcQ, srcB, dst, sc)
		checkColumns(t, "scale", src, dst, func(res []uint64) []uint64 {
			return oracleScale(k.qb, k.b, k.t, k.q.Q, res)
		})
	})
}

// benchKits are the two shapes the benchmark workloads multiply at.
func benchKits(b *testing.B, f func(b *testing.B, k *tensorKit)) {
	for c, level := range []int{6, 9} {
		chain := testChains[c]
		b.Run(chain.name, func(b *testing.B) {
			f(b, newTensorKit(b, chain.logN, chainPrimes(b, c)[:level], chain.t))
		})
	}
}

func BenchmarkBaseConvert(b *testing.B) {
	benchKits(b, func(b *testing.B, k *tensorKit) {
		src := polyOf(k.q, randomValues(rand.New(rand.NewPCG(1, 1)), k.q.Q, k.n))
		dst := newPoly(k.b.Len(), k.n)
		sc := NewScratch(k.q.Len(), k.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.toB.Convert(src, dst, sc)
		}
	})
}

func BenchmarkScaleRound(b *testing.B) {
	benchKits(b, func(b *testing.B, k *tensorKit) {
		src := polyOf(k.qb, randomValues(rand.New(rand.NewPCG(2, 2)), k.qb.Q, k.n))
		srcQ, srcB := ring.Poly{Coeffs: src.Coeffs[:k.q.Len()]}, ring.Poly{Coeffs: src.Coeffs[k.q.Len():]}
		dst := newPoly(k.b.Len(), k.n)
		sc := NewScratch(k.q.Len(), k.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.scale.ScaleRound(srcQ, srcB, dst, sc)
		}
	})
}
