package lwe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"athena/internal/ring"
)

// negacyclic returns a·b in Z_q[X]/(X^N + 1), the schoolbook way.
func negacyclic(a, b []uint64, q uint64) []uint64 {
	m := ring.NewModulus(q)
	n := len(a)
	out := make([]uint64, n)
	for i, x := range a {
		for j, y := range b {
			p := m.Mul(m.Reduce(x), m.Reduce(y))
			if i+j < n {
				out[i+j] = m.Add(out[i+j], p)
			} else {
				out[i+j-n] = m.Sub(out[i+j-n], p)
			}
		}
	}
	return out
}

// digit returns the d-th base-k.Base digit polynomial of a.
func digit(k *KeySwitchKey, a []uint64, d int) []uint64 {
	out := make([]uint64, len(a))
	for i, x := range a {
		for range d {
			x /= k.Base
		}
		out[i] = x % k.Base
	}
	return out
}

// pair returns a copy of the key's d-th pair (B_d, A_d) mod Q, taken
// back from its NTT images.
func (k *KeySwitchKey) pair(d int) (b, a []uint64) {
	b, a = slices.Clone(k.nttB[d]), slices.Clone(k.nttA[d])
	k.ntt.Inverse(b)
	k.ntt.Inverse(a)
	return b, a
}

// extractOracle is Step ③ by definition, without the kernel's NTT at P:
// the switch as schoolbook products mod Q (switchOracle), ModSwitch of
// every coefficient to q2, SampleExtract of each index under the
// coefficient vector of s′, and the n coefficients of s′ that carry z
// kept.
func extractOracle(k *KeySwitchKey, rc RLWE, idx []int, q2 uint64) []Ciphertext {
	return gatherOracle(k, switchOracle(k, rc), idx, q2)
}

func switchOracle(k *KeySwitchKey, rc RLWE) RLWE {
	m := ring.NewModulus(k.Q)
	out := RLWE{A: make([]uint64, k.N), B: slices.Clone(rc.B), Q: k.Q}
	for d := 0; d < k.Digits; d++ {
		ad := digit(k, rc.A, d)
		bd, kd := k.pair(d)
		m.AddVec(out.A, negacyclic(ad, kd, k.Q), out.A)
		m.AddVec(out.B, negacyclic(ad, bd, k.Q), out.B)
	}
	return out
}

func gatherOracle(k *KeySwitchKey, sw RLWE, idx []int, q2 uint64) []Ciphertext {
	a2, b2 := make([]uint64, k.N), make([]uint64, k.N)
	for i := range a2 {
		a2[i], b2[i] = scaleRound(sw.A[i], k.Q, q2), scaleRound(sw.B[i], k.Q, q2)
	}
	out := SampleExtract(RLWE{A: a2, B: b2, Q: q2}, idx)
	for v := range out {
		z := make([]uint64, k.Dim)
		for j := range z {
			z[j] = out[v].A[j*(k.N/k.Dim)]
		}
		out[v].A = z
	}
	return out
}

// switchShape is one (N, n, q, base) the kernel is checked at.
type switchShape struct {
	name    string
	logN    int
	nOut    int
	q, base uint64
	t       uint64
}

// switchShapes are the two benchmark workloads' shapes, MediumParams',
// and a modulus that puts the digit × key sums near the edge of the
// range P represents exactly: 2·N·digits·(base − 1)·(q − 1) ≈ 0.75·P.
var switchShapes = []switchShape{
	{"N128_t257", 7, 32, 257 << 12, 1 << 7, 257},
	{"N512_t12289", 9, 64, 12289 << 12, 1 << 7, 12289},
	{"N2048_t65537", 11, 128, 65537 << 12, 1 << 7, 65537},
	{"bound_edge", 6, 8, 1<<42 - 11, 1 << 8, 257},
}

func (sh switchShape) key(seed uint64) *KeySwitchKey {
	return NewKeySwitchKey(NewSecretKey(1<<sh.logN, seed), NewSecretKey(sh.nOut, seed+1), sh.q, sh.base, 3.2, seed+2)
}

// rlwe returns a ring ciphertext of shape sh whose mask words come from
// fill (given a uniform draw) and whose bodies are uniform.
func (sh switchShape) rlwe(seed uint64, fill func(u uint64) uint64) RLWE {
	smp := NewStream(seed)
	n := 1 << sh.logN
	rc := RLWE{A: make([]uint64, n), B: make([]uint64, n), Q: sh.q}
	for i := range rc.A {
		rc.A[i] = fill(smp.Uint64N(sh.q))
		rc.B[i] = smp.Uint64N(sh.q)
	}
	return rc
}

func equalCiphertexts(t *testing.T, what string, got, want []Ciphertext) {
	t.Helper()
	for i := range want {
		if got[i].Q != want[i].Q || got[i].B != want[i].B || !slices.Equal(got[i].A, want[i].A) {
			t.Fatalf("%s: value %d differs from the reference", what, i)
		}
	}
}

// TestSwitchExtractMatchesOracle: the kernel is bit-identical to the
// switch by schoolbook products, the modulus switch and extraction, at
// the workload shapes and at the edges — an all-zero and an all-(q−1)
// mask, the wrap boundary (indices 0 and N−1), repeated and unordered
// indices, switching to t and staying at q, and sums near P/2.
func TestSwitchExtractMatchesOracle(t *testing.T) {
	for _, sh := range switchShapes {
		t.Run(sh.name, func(t *testing.T) {
			k := sh.key(41)
			s := k.NewSwitcher()
			n := k.N
			fills := map[string]func(uint64) uint64{
				"uniform": func(u uint64) uint64 { return u },
				"zero":    func(uint64) uint64 { return 0 },
				"q-1":     func(uint64) uint64 { return sh.q - 1 },
			}
			idx := []int{0, n - 1, n / 2, 3, n - 2, 0, 5, n / 3, 7}
			for fname, fill := range fills {
				rc := sh.rlwe(42, fill)
				sw := switchOracle(k, rc)
				for _, q2 := range []uint64{sh.t, sh.q} {
					want := gatherOracle(k, sw, idx, q2)
					for _, l := range []int{1, 2, 3, len(idx)} {
						got := make([]Ciphertext, l)
						s.SwitchExtract(rc, idx[:l], q2, got)
						equalCiphertexts(t, fmt.Sprintf("%s idx %v q2 %d", fname, idx[:l], q2), got, want[:l])
					}
				}
			}
		})
	}
}

// TestSwitchNoiseIsDigitsTimesErrors: the switch adds to coefficient i of
// the phase exactly Σ_d (a_d ⋆ e_d)_i, where a_d is the mask's d-th digit
// polynomial and e_d the error of the key's d-th pair, recovered as B_d +
// A_d·s′ − Base^d·s. That is the sum of N·Digits digit × error terms the
// per-value matrix switch added.
func TestSwitchNoiseIsDigitsTimesErrors(t *testing.T) {
	sh := switchShapes[0]
	s, z := NewSecretKey(1<<sh.logN, 51), NewSecretKey(sh.nOut, 52)
	k := NewKeySwitchKey(s, z, sh.q, sh.base, 3.2, 53)
	m := ring.NewModulus(k.Q)
	n := k.N
	signed := func(v []int64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = m.ReduceInt64(x)
		}
		return out
	}
	sPoly := signed(s.S)
	sPrime := make([]uint64, n)
	for j, x := range z.S {
		sPrime[j*(n/k.Dim)] = m.ReduceInt64(x)
	}
	rc := sh.rlwe(54, func(u uint64) uint64 { return u })
	want := make([]uint64, n)
	pw := uint64(1)
	for d := 0; d < k.Digits; d++ {
		bd, ad := k.pair(d)
		e := negacyclic(ad, sPrime, k.Q)
		m.AddVec(e, bd, e)
		for i, x := range e {
			e[i] = m.Sub(x, m.Mul(pw, sPoly[i]))
		}
		for i, x := range e {
			if c := m.Centered(x); c > 40 || c < -40 {
				t.Fatalf("digit %d: key error %d at %d is not a Gaussian of width 3.2", d, c, i)
			}
		}
		m.AddVec(want, negacyclic(digit(k, rc.A, d), e, k.Q), want)
		pw = m.Mul(pw, k.Base)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]Ciphertext, n)
	k.NewSwitcher().SwitchExtract(rc, idx, k.Q, out)
	phase := slices.Clone(rc.B)
	m.AddVec(phase, negacyclic(rc.A, sPoly, k.Q), phase)
	for i, ct := range out {
		if got := m.Sub(z.Decrypt(ct), phase[i]); got != want[i] {
			t.Fatalf("coefficient %d: the switch added %d, Σ_d (a_d ⋆ e_d) is %d", i, m.Centered(got), m.Centered(want[i]))
		}
	}
}

// TestSwitchExtractAllocatesNothing: with outputs of the right size the
// kernel touches no heap.
func TestSwitchExtractAllocatesNothing(t *testing.T) {
	sh := switchShapes[0]
	k := sh.key(61)
	s := k.NewSwitcher()
	rc := sh.rlwe(62, func(u uint64) uint64 { return u })
	idx := []int{0, 9, 17, 33, 64, 127}
	backing := make([]uint64, len(idx)*sh.nOut)
	out := make([]Ciphertext, len(idx))
	for i := range out {
		out[i].A = backing[i*sh.nOut : (i+1)*sh.nOut]
	}
	if n := testing.AllocsPerRun(20, func() { s.SwitchExtract(rc, idx, sh.t, out) }); n != 0 {
		t.Fatalf("SwitchExtract allocates %v times per run, want 0", n)
	}
	equalCiphertexts(t, "preallocated outputs", out, extractOracle(k, rc, idx, sh.t))
}

// TestKeySwitchRejectsInexactBase: a base the kernel cannot use exactly —
// not a power of two, or 2·N·digits·(base−1)·(q−1) not below P — is
// refused by the plan (an error) and by key generation (a panic); a key
// header claiming another base than the plan's is refused by the reader.
// Two moduli either side of the bound at base 2⁸ and N = 64 pin it.
func TestKeySwitchRejectsInexactBase(t *testing.T) {
	cases := []struct {
		name    string
		logN    int
		q, base uint64
		ok      bool
	}{
		{"base 16", 2, wireTestQ, 16, true},
		{"base 1", 2, wireTestQ, 1, false},
		{"base 24", 2, wireTestQ, 24, false},
		{"base 2^48 overflows", 2, wireTestQ, 1 << 48, false},
		{"base 2^8 at q = 2^42 fits", 6, 1 << 42, 1 << 8, true},
		{"base 2^8 at q = 2^44 overflows", 6, 1 << 44, 1 << 8, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, err := NewSwitchPlan(c.logN, 2, c.q, c.base)
			if (err == nil) != c.ok {
				t.Fatalf("NewSwitchPlan = %v, want ok=%v", err, c.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "base") {
				t.Fatalf("rejected for another reason: %v", err)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				NewKeySwitchKey(NewSecretKey(1<<c.logN, 1), NewSecretKey(2, 2), c.q, c.base, 3.2, 3)
				return false
			}()
			if panicked == c.ok {
				t.Fatalf("NewKeySwitchKey panicked=%v, want %v", panicked, !c.ok)
			}
			if !c.ok {
				return
			}
			var buf bytes.Buffer
			if err := WriteKey(sp.NewKey(NewSecretKey(1<<c.logN, 1), NewSecretKey(2, 2), 3.2, 3), &buf); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()
			binary.LittleEndian.PutUint64(blob[24:], 2*c.base)
			if _, err := sp.ReadKey(bytes.NewReader(blob), ring.NewRowStream(nil)); err == nil || !strings.Contains(err.Error(), "base") {
				t.Fatalf("ReadKey of a header with base %d: %v", 2*c.base, err)
			}
		})
	}
}

// TestSwitchPrime: P is a 60-bit prime whose NTT serves every ring
// degree the plan accepts (2N divides P − 1 up to N = 2^17).
func TestSwitchPrime(t *testing.T) {
	if !ring.IsPrime(prime) || bits.Len64(prime) != 60 || (prime-1)%(1<<18) != 0 {
		t.Fatalf("P = %d is not a 60-bit prime ≡ 1 mod 2^18", uint64(prime))
	}
	for _, logN := range []int{0, 18} {
		if _, err := NewSwitchPlan(logN, 1, 257<<12, 128); err == nil {
			t.Fatalf("ring degree 2^%d accepted", logN)
		}
	}
}

// FuzzSwitchExtract: for any mask (uniform, or biased to the digit
// extremes 0 and q−1), any first index and any run of up to eight
// values, the kernel equals the reference at a small workload shape and
// at the bound's edge. testdata/fuzz holds the edges.
func FuzzSwitchExtract(f *testing.F) {
	shapes := []switchShape{
		{"small_t257", 6, 8, 257 << 12, 1 << 7, 257},
		switchShapes[3],
	}
	keys := []*KeySwitchKey{shapes[0].key(71), shapes[1].key(72)}
	f.Add(uint64(1), uint16(0), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(63), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, first uint16, width, mode uint8) {
		sh, k := shapes[mode&1], keys[mode&1]
		// mode>>1 picks the mask: uniform, all zero, all q−1, or a mix.
		mix := NewStream(seed ^ 0x5eed)
		fill := []func(uint64) uint64{
			func(u uint64) uint64 { return u },
			func(uint64) uint64 { return 0 },
			func(uint64) uint64 { return sh.q - 1 },
			func(u uint64) uint64 { return []uint64{0, sh.q - 1, u}[mix.IntN(3)] },
		}[mode>>1&3]
		rc := sh.rlwe(seed, fill)
		idx := make([]int, 1+int(width)%8)
		stride := 1 + int(seed%uint64(k.N))
		for v := range idx {
			idx[v] = (int(first) + v*stride) % k.N
		}
		got := make([]Ciphertext, len(idx))
		k.NewSwitcher().SwitchExtract(rc, idx, sh.t, got)
		equalCiphertexts(t, sh.name, got, extractOracle(k, rc, idx, sh.t))
	})
}

// BenchmarkSwitchExtract times Step ③ per ciphertext at the single_t257,
// single_t12289 and MediumParams shapes: one op switches one ring
// ciphertext and gathers all N of its values into preallocated outputs.
func BenchmarkSwitchExtract(b *testing.B) {
	for _, sh := range switchShapes[:3] {
		b.Run(sh.name, func(b *testing.B) {
			k := sh.key(81)
			s := k.NewSwitcher()
			rc := sh.rlwe(82, func(u uint64) uint64 { return u })
			idx := make([]int, k.N)
			out := make([]Ciphertext, k.N)
			for i := range idx {
				idx[i] = i
				out[i].A = make([]uint64, sh.nOut)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SwitchExtract(rc, idx, sh.t, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ciphertext")
		})
	}
}
