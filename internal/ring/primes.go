package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// IsPrime reports whether q is prime. It delegates to math/big's
// Baillie-PSW + Miller-Rabin test, which is deterministic for 64-bit
// inputs in practice.
func IsPrime(q uint64) bool {
	return new(big.Int).SetUint64(q).ProbablyPrime(20)
}

// GenerateNTTPrimes returns count distinct primes of (approximately)
// bitSize bits that are congruent to 1 mod 2N, i.e. primes that support a
// negacyclic NTT of length N. Candidates are scanned downward from the
// largest value of the requested size, so the i-th prime of a given
// (bitSize, N) request is deterministic.
func GenerateNTTPrimes(bitSize, logN, count int) ([]uint64, error) {
	if bitSize < 4 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("ring: prime bit size %d out of range [4,%d]", bitSize, MaxModulusBits)
	}
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("ring: logN %d out of range [1,17]", logN)
	}
	step := uint64(2) << uint(logN) // 2N
	// Largest multiple of 2N at or below 2^bitSize - 1, plus 1.
	upper := uint64(1)<<uint(bitSize) - 1
	cand := (upper/step)*step + 1
	lower := uint64(1) << uint(bitSize-1)

	primes := make([]uint64, 0, count)
	for cand > lower && len(primes) < count {
		if IsPrime(cand) {
			primes = append(primes, cand)
		}
		cand -= step
	}
	if len(primes) < count {
		return nil, fmt.Errorf("ring: only %d/%d NTT primes of %d bits for logN=%d", len(primes), count, bitSize, logN)
	}
	return primes, nil
}

// PrimitiveRoot returns a generator of the multiplicative group Z_q^*,
// given the prime q: the least g ≥ 2 with g^((q−1)/f) ≠ 1 for every
// prime factor f of q − 1.
func PrimitiveRoot(q uint64) uint64 {
	m := NewModulus(q)
	factors := distinctPrimeFactors(q - 1)
	for g := uint64(2); ; g++ {
		ok := true
		for _, f := range factors {
			if m.Pow(g, (q-1)/f) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
}

// RootOfUnity returns a primitive n-th root of unity mod the prime q.
// It requires n | q-1 and panics otherwise.
func RootOfUnity(q, n uint64) uint64 {
	if (q-1)%n != 0 {
		panic(fmt.Sprintf("ring: %d does not divide %d-1", n, q))
	}
	m := NewModulus(q)
	g := PrimitiveRoot(q)
	psi := m.Pow(g, (q-1)/n)
	// Sanity: psi^(n/2) must be != 1 for primitivity (n is a power of two
	// in all our uses, but guard generally via full order check).
	if m.Pow(psi, n) != 1 {
		panic("ring: root of unity order mismatch")
	}
	for _, f := range distinctPrimeFactors(n) {
		if m.Pow(psi, n/f) == 1 {
			panic("ring: root of unity not primitive")
		}
	}
	return psi
}

// distinctPrimeFactors returns the distinct prime factors of n ≥ 1 in
// increasing order. Factors below 64 are divided out by trial; what is
// left splits by Pollard's rho, so a 60-bit n − 1 with a large prime
// cofactor costs microseconds, not the ~2^30 divisions trial division
// up to its square root would.
func distinctPrimeFactors(n uint64) []uint64 {
	var fs []uint64
	for p := uint64(2); p < 64 && p*p <= n; p++ {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	fs = appendPrimeFactors(fs, n)
	slices.Sort(fs)
	return slices.Compact(fs)
}

// appendPrimeFactors appends the prime factors of n, which has none
// below 64, with repeats.
func appendPrimeFactors(fs []uint64, n uint64) []uint64 {
	if n == 1 {
		return fs
	}
	if IsPrime(n) {
		return append(fs, n)
	}
	d := pollardRho(n)
	return appendPrimeFactors(appendPrimeFactors(fs, d), n/d)
}

// pollardRho returns a non-trivial factor of the odd composite n: Brent's
// cycle search on x ↦ x² + c mod n, with the differences multiplied
// together and one gcd per batch of them.
func pollardRho(n uint64) uint64 {
	mul := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		_, r := bits.Div64(hi, lo, n) // a, b < n, so hi < n
		return r
	}
	const batch = 64
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 {
			x = mul(x, x) + c
			if x >= n || x < c { // c < n, so one subtraction reduces
				x -= n
			}
			return x
		}
		y, x, ys := uint64(2), uint64(2), uint64(2)
		g, acc := uint64(1), uint64(1)
		for r := 1; g == 1; r *= 2 {
			x = y
			for i := 0; i < r; i++ {
				y = f(y)
			}
			for k := 0; k < r && g == 1; k += batch {
				ys = y
				for i := 0; i < min(batch, r-k); i++ {
					y = f(y)
					acc = mul(acc, absDiff(x, y))
				}
				g = gcd(acc, n)
			}
		}
		if g == n {
			// The batch overshot: step back through it one gcd at a time.
			for g = 1; g == 1; {
				ys = f(ys)
				g = gcd(absDiff(x, ys), n)
			}
		}
		if g != n {
			return g
		}
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
