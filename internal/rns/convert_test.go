package rns

import (
	"fmt"
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

// nearHalf reports whether num/den lies within 2^-64 of a half-integer,
// the distance below which fixed point must leave a rounding undecided;
// every value the tests below choose is either far closer or far away.
func nearHalf(num, den *big.Int) bool {
	den2 := new(big.Int).Lsh(den, 1)
	r := new(big.Int).Lsh(num, 1)
	r.Sub(r, den).Mod(r, den2) // 2·num − den modulo 2·den
	if far := new(big.Int).Sub(den2, r); far.Cmp(r) < 0 {
		r = far
	}
	return r.Lsh(r, 63).Cmp(den) < 0
}

// checkFallback asserts that exactly the columns whose sum lies near a
// half, num(x)/den, were left to the big-integer fallback.
func checkFallback(t *testing.T, what string, vals []*big.Int, top []uint64, num func(x *big.Int) *big.Int, den *big.Int) {
	t.Helper()
	for c, x := range vals {
		if flagged, want := top[c] == undecided, nearHalf(num(x), den); flagged != want {
			t.Fatalf("%s: coefficient %d (x = %v) undecided = %v, want %v", what, c, x, flagged, want)
		}
	}
}

// dropEdgeValues are the edge values of a drop from Q to its prefix Q/P:
// 0, ±1, ±⌊Q/2⌋ and ±(P∓1)/2, the last six sitting at the ends of the
// centered range modulo P.
func dropEdgeValues(q, p *big.Int) []*big.Int {
	halfQ := new(big.Int).Rsh(q, 1)
	halfP := new(big.Int).Rsh(p, 1)
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0), one, big.NewInt(-1), halfQ, new(big.Int).Neg(halfQ),
		halfP, new(big.Int).Neg(halfP),
		new(big.Int).Add(halfP, one), new(big.Int).Neg(new(big.Int).Add(halfP, one)),
	}
}

// TestDropperMatchesOracle runs the limb drop of ModDown from every level
// to every lower level of both chains against round(x/P) computed in big
// integers, on the edge values and on random x, and checks that exactly
// the values at the ends of the range modulo P took the fallback.
func TestDropperMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	for c, chain := range testChains {
		primes := chainPrimes(t, c)
		for from := 2; from <= chain.limbs; from++ {
			b := NewBasis(primes[:from])
			for keep := 1; keep < from; keep++ {
				kept := NewBasis(primes[:keep])
				p := new(big.Int).Div(b.Q, kept.Q)
				d, err := NewDropper(b, keep)
				if err != nil {
					t.Fatal(err)
				}
				vals := append(dropEdgeValues(b.Q, p), randomValues(rng, b.Q, 55)...)
				src := polyOf(b, vals)
				n := len(vals)
				rem, got := newPoly(keep, n), newPoly(keep, n)
				sc := NewScratch(from-keep, n)
				d.Remainder(ring.Poly{Coeffs: src.Coeffs[keep:]}, rem, sc)
				d.Quotient(src, rem, got)
				want := newPoly(keep, n)
				b.ScaleAndRound(src, kept.Q, b.Q, kept, want)
				what := fmt.Sprintf("%s %d→%d", chain.name, from, keep)
				if !got.Equal(want) {
					t.Fatalf("%s: Dropper differs from ScaleAndRound", what)
				}
				checkFallback(t, what, vals, sc.top, func(x *big.Int) *big.Int { return x }, p)
			}
		}
	}
}

// wordEdgeValues are the edge values of the scaling by s/Q: 0, ±1,
// ±⌊Q/2⌋, and the two integers around (2n+1)·Q/(2s), where s·x/Q is
// within s/Q of a half.
func wordEdgeValues(q *big.Int, s uint64) []*big.Int {
	halfQ := new(big.Int).Rsh(q, 1)
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), halfQ, new(big.Int).Neg(halfQ)}
	s2 := new(big.Int).SetUint64(2 * s)
	for _, n := range []int64{0, 1, -1, 1000, -int64(s / 2)} {
		x := new(big.Int).Mul(big.NewInt(2*n+1), q)
		x.Div(x, s2)
		vals = append(vals, x, new(big.Int).Add(x, big.NewInt(1)))
	}
	return vals
}

// TestWordScalerMatchesOracle runs decryption's scaling (s = t) and the
// modulus switch's (s = t·2^12) at every level of both chains against
// round(s·x/Q) mod s computed in big integers, and checks that exactly
// the values beside a half took the fallback.
func TestWordScalerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	for c, chain := range testChains {
		primes := chainPrimes(t, c)
		for L := 1; L <= chain.limbs; L++ {
			b := NewBasis(primes[:L])
			for _, s := range []uint64{chain.t, chain.t << 12} {
				ws, err := NewWordScaler(b, s)
				if err != nil {
					t.Fatal(err)
				}
				vals := append(wordEdgeValues(b.Q, s), randomValues(rng, b.Q, 55)...)
				src := polyOf(b, vals)
				n := len(vals)
				got, want := make([]uint64, n), make([]uint64, n)
				sc := NewScratch(L, n)
				ws.ScaleRound(src, got, sc)
				sBig := new(big.Int).SetUint64(s)
				b.ScaleAndRoundToUint(src, sBig, b.Q, s, want)
				what := fmt.Sprintf("%s level %d s=%d", chain.name, L, s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: coefficient %d (x = %v) = %d, want %d", what, i, vals[i], got[i], want[i])
					}
				}
				checkFallback(t, what, vals, sc.top, func(x *big.Int) *big.Int {
					return new(big.Int).Mul(centered(x, b.Q), sBig)
				}, b.Q)
			}
		}
	}
}

// TestDropAndWordScaleAllocateNothing holds the two kernels of ModDown,
// decryption and modulus switching to their noalloc contract on inputs
// that need no fallback.
func TestDropAndWordScaleAllocateNothing(t *testing.T) {
	b := NewBasis(chainPrimes(t, 0))
	vals := randomValues(rand.New(rand.NewPCG(16, 16)), b.Q, 64)
	src := polyOf(b, vals)
	d, err := NewDropper(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWordScaler(b, testChains[0].t<<12)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch(b.Len(), len(vals))
	rem, out := newPoly(2, len(vals)), make([]uint64, len(vals))
	if n := testing.AllocsPerRun(20, func() {
		d.Remainder(ring.Poly{Coeffs: src.Coeffs[2:]}, rem, sc)
		d.Quotient(src, rem, rem)
	}); n != 0 {
		t.Errorf("Dropper allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ws.ScaleRound(src, out, sc) }); n != 0 {
		t.Errorf("WordScaler allocates %v times per run, want 0", n)
	}
}

// centered returns the representative of x modulo q in [−q/2, q/2).
func centered(x, q *big.Int) *big.Int {
	r := new(big.Int).Mod(x, q)
	if r.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
		r.Sub(r, q)
	}
	return r
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
	if _, err := NewWordScaler(long, 257); err == nil {
		t.Error("NewWordScaler accepted a basis above MaxLimbs")
	}
	if _, err := NewDropper(NewBasis(primes[:MaxLimbs+2]), 1); err == nil {
		t.Error("NewDropper accepted a dropped basis above MaxLimbs")
	}
}

// TestKernelConstantsRejectBadShapes pins the errors raised where the
// constants are built: a word modulus not below every prime, and a
// Dropper that keeps no limb or drops none.
func TestKernelConstantsRejectBadShapes(t *testing.T) {
	b := NewBasis(chainPrimes(t, 0))
	minQ := b.Moduli[0].Q
	for _, m := range b.Moduli {
		minQ = min(minQ, m.Q)
	}
	for _, s := range []uint64{0, 1, minQ, minQ + 1, ^uint64(0)} {
		if _, err := NewWordScaler(b, s); err == nil {
			t.Errorf("NewWordScaler accepted s = %d", s)
		}
	}
	if _, err := NewWordScaler(b, minQ-1); err != nil {
		t.Errorf("NewWordScaler rejected s = q_min − 1: %v", err)
	}
	for _, keep := range []int{-1, 0, b.Len(), b.Len() + 1} {
		if _, err := NewDropper(b, keep); err == nil {
			t.Errorf("NewDropper accepted keep = %d of %d", keep, b.Len())
		}
	}
}

// fuzzValues decodes fuzz input into four values related to one integer
// x below p, x, −x, x+1 and −x−1: the low bit of the first byte is the
// sign of x, the rest its big-endian magnitude. The seed corpora under
// testdata/fuzz hold each target's edge values in this encoding.
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

// FuzzDropper drops the full core.TestParams chain to its first two
// limbs, the engine's full → post ModDown. The seed corpus holds
// dropEdgeValues.
func FuzzDropper(f *testing.F) {
	b := NewBasis(chainPrimes(f, 0))
	const keep = 2
	kept := NewBasis(b.Values()[:keep])
	d, err := NewDropper(b, keep)
	if err != nil {
		f.Fatal(err)
	}
	sc := NewScratch(b.Len()-keep, 4)
	rem, want := newPoly(keep, 4), newPoly(keep, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := polyOf(b, fuzzValues(data, b.Q))
		d.Remainder(ring.Poly{Coeffs: src.Coeffs[keep:]}, rem, sc)
		d.Quotient(src, rem, rem)
		b.ScaleAndRound(src, kept.Q, b.Q, kept, want)
		if !rem.Equal(want) {
			t.Fatal("Dropper differs from ScaleAndRound")
		}
	})
}

// FuzzWordScaler scales the full core.TestParams chain into Z_t and
// Z_qMid, qMid = t·2^12. The seed corpus holds wordEdgeValues at both.
func FuzzWordScaler(f *testing.F) {
	b := NewBasis(chainPrimes(f, 0))
	var scalers []*WordScaler
	for _, s := range []uint64{testChains[0].t, testChains[0].t << 12} {
		ws, err := NewWordScaler(b, s)
		if err != nil {
			f.Fatal(err)
		}
		scalers = append(scalers, ws)
	}
	sc := NewScratch(b.Len(), 4)
	got, want := make([]uint64, 4), make([]uint64, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := polyOf(b, fuzzValues(data, b.Q))
		for _, ws := range scalers {
			ws.ScaleRound(src, got, sc)
			b.ScaleAndRoundToUint(src, new(big.Int).SetUint64(ws.s.Q), b.Q, ws.s.Q, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("s = %d: coefficient %d = %d, want %d", ws.s.Q, i, got[i], want[i])
				}
			}
		}
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
