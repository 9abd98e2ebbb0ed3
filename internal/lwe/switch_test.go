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

// switchOracle is the dimension switch the fused kernel replaced, kept
// as its reference: a Div64 per digit and a Shoup multiply-reduce per
// term, every partial sum reduced.
func switchOracle(k *KeySwitchKey, ct Ciphertext) Ciphertext {
	m := ring.NewModulus(k.Q)
	w := k.NOut + 1
	out := Ciphertext{A: make([]uint64, k.NOut), B: m.Reduce(ct.B), Q: k.Q}
	for j, aj := range ct.A {
		v := m.Reduce(aj)
		for d := 0; d < k.Digits && v > 0; d++ {
			var dig uint64
			v, dig = bits.Div64(0, v, k.Base)
			if dig == 0 {
				continue
			}
			sh := m.ShoupPrecomp(dig)
			row := k.M[(j*k.Digits+d)*w:][:w]
			m.MulShoupAddVec(row[:k.NOut], dig, sh, out.A)
			out.B = m.Add(out.B, m.MulShoup(row[k.NOut], dig, sh))
		}
	}
	return out
}

// extractOracle is Step ③ as three separate passes: SampleExtract, the
// reference switch, ModSwitch to q2.
func extractOracle(k *KeySwitchKey, rc RLWE, idx []int, q2 uint64) []Ciphertext {
	cts := SampleExtract(rc, idx)
	for i, ct := range cts {
		cts[i] = ModSwitch(switchOracle(k, ct), q2)
	}
	return cts
}

// switchShape is one (N, n, q, base) the kernel is checked at.
type switchShape struct {
	name    string
	nIn     int
	nOut    int
	q, base uint64
	t       uint64
}

// switchShapes are the two benchmark workloads' shapes, MediumParams',
// and two moduli large enough that the accumulators must fold: every
// 1 092 rows (so once inside a value) and after every row.
var switchShapes = []switchShape{
	{"N128_t257", 128, 32, 257 << 12, 1 << 7, 257},
	{"N512_t12289", 512, 64, 12289 << 12, 1 << 7, 12289},
	{"N2048_t65537", 2048, 128, 65537 << 12, 1 << 7, 65537},
	{"fold1092", 128, 16, 1<<50 - 35, 1 << 4, 65537},
	{"fold1", 64, 8, 1<<56 - 5, 1 << 8, 257},
}

func (sh switchShape) key(seed uint64) *KeySwitchKey {
	return NewKeySwitchKey(NewSecretKey(sh.nIn, seed), NewSecretKey(sh.nOut, seed+1), sh.q, sh.base, 3.2, seed+2)
}

// rlwe returns an RLWE ciphertext of shape sh whose mask words come from
// fill (given a uniform draw) and whose bodies are uniform.
func (sh switchShape) rlwe(seed uint64, fill func(u uint64) uint64) RLWE {
	smp := NewStream(seed)
	rc := RLWE{A: make([]uint64, sh.nIn), B: make([]uint64, sh.nIn), Q: sh.q}
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

// TestSwitchExtractMatchesOracle: the fused kernel is bit-identical to
// extraction, the reference switch and ModSwitch in turn, at the
// workload shapes and at the edges — an all-zero and an all-(q−1) mask,
// the rotation boundary (indices 0 and N−1), tiles of one to four
// values and runs that cross a tile, switching to t and staying at q,
// and accumulators that must fold.
func TestSwitchExtractMatchesOracle(t *testing.T) {
	for _, sh := range switchShapes {
		t.Run(sh.name, func(t *testing.T) {
			k := sh.key(41)
			s := k.NewSwitcher()
			_, step := bits.Mul64(sh.base-1, sh.q-1)
			if lim, _ := bits.Div64(0, -sh.q, step); s.fold != lim || s.fold == 0 {
				t.Fatalf("fold interval %d, want %d", s.fold, lim)
			}
			n := sh.nIn
			fills := map[string]func(uint64) uint64{
				"uniform": func(u uint64) uint64 { return u },
				"zero":    func(uint64) uint64 { return 0 },
				"q-1":     func(uint64) uint64 { return sh.q - 1 },
			}
			idxSets := [][]int{{0}, {n - 1}, {0, n - 1}, {n - 1, 0, 1}, {n / 2, 3, n - 2, 0}, {5, 0, n - 1, 7, n / 3}}
			for fname, fill := range fills {
				rc := sh.rlwe(42, fill)
				for _, idx := range idxSets {
					for _, q2 := range []uint64{sh.t, sh.q} {
						got := make([]Ciphertext, len(idx))
						s.SwitchExtract(rc, idx, q2, got)
						equalCiphertexts(t, fmt.Sprintf("%s idx %v q2 %d", fname, idx, q2), got, extractOracle(k, rc, idx, q2))
					}
				}
			}
		})
	}
}

// TestSwitchExtractAllocatesNothing: with outputs of the right size the
// kernel touches no heap, whatever the tile count.
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

// TestKeySwitchRejectsInexactBase: a base the kernel cannot use exactly
// — not a power of two, or (base−1)(q−1) + q > 2^64 — is refused by key
// generation (panic) and by the wire reader (error); the largest exact
// base at a modulus, and the smallest modulus past it, pin the bound.
func TestKeySwitchRejectsInexactBase(t *testing.T) {
	cases := []struct {
		name    string
		q, base uint64
		ok      bool
	}{
		{"base 16", wireTestQ, 16, true},
		{"base 1", wireTestQ, 1, false},
		{"base 24", wireTestQ, 24, false},
		{"base 2^48 overflows", wireTestQ, 1 << 48, false},
		{"base 2^8 at q = 2^56 fits exactly", 1 << 56, 1 << 8, true},
		{"base 2^8 at q = 2^56+1 overflows", 1<<56 + 1, 1 << 8, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := CheckBase(c.q, c.base); (err == nil) != c.ok {
				t.Fatalf("CheckBase = %v, want ok=%v", err, c.ok)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				NewKeySwitchKey(NewSecretKey(4, 1), NewSecretKey(2, 2), c.q, c.base, 3.2, 3)
				return false
			}()
			if panicked == c.ok {
				t.Fatalf("NewKeySwitchKey panicked=%v, want %v", panicked, !c.ok)
			}
			// A header of the expected shape carrying c.base, then a
			// matrix of zeros: only the base can fail it.
			want := KeySwitchShape{NIn: 4, NOut: 2, Digits: Digits(c.q, max(c.base, 2)), Q: c.q}
			var blob []byte
			for _, v := range []uint64{magicKSK, wireVer, c.q, c.base, uint64(want.Digits), 4, 2} {
				blob = binary.LittleEndian.AppendUint64(blob, v)
			}
			blob = append(blob, make([]byte, 8*want.words())...)
			_, err := ReadKeySwitchKey(bytes.NewReader(blob), want)
			if (err == nil) != c.ok {
				t.Fatalf("ReadKeySwitchKey = %v, want ok=%v", err, c.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "base") {
				t.Fatalf("rejected for another reason: %v", err)
			}
		})
	}
}

// FuzzSwitchExtract: for any mask (uniform, or biased to the digit
// extremes 0 and q−1), any first index and any run of up to two tiles,
// the fused kernel equals the reference at a workload shape and at a
// modulus that folds after every row. testdata/fuzz holds the edges.
func FuzzSwitchExtract(f *testing.F) {
	shapes := []switchShape{
		{"small_t257", 64, 8, 257 << 12, 1 << 7, 257},
		switchShapes[4],
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
		idx := make([]int, 1+int(width)%(2*Tile))
		stride := 1 + int(seed%uint64(sh.nIn))
		for v := range idx {
			idx[v] = (int(first) + v*stride) % sh.nIn
		}
		got := make([]Ciphertext, len(idx))
		k.NewSwitcher().SwitchExtract(rc, idx, sh.t, got)
		equalCiphertexts(t, sh.name, got, extractOracle(k, rc, idx, sh.t))
	})
}

// BenchmarkSwitchExtract times the fused Step ③ at the single_t257 and
// single_t12289 workload shapes: one op switches four tiles into
// preallocated outputs; ns/value is the cost of one extracted value.
func BenchmarkSwitchExtract(b *testing.B) {
	for _, sh := range switchShapes[:2] {
		b.Run(sh.name, func(b *testing.B) {
			k := sh.key(81)
			s := k.NewSwitcher()
			rc := sh.rlwe(82, func(u uint64) uint64 { return u })
			idx := make([]int, 4*Tile)
			for v := range idx {
				idx[v] = (v * 37) % sh.nIn
			}
			out := make([]Ciphertext, len(idx))
			for i := range out {
				out[i].A = make([]uint64, sh.nOut)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SwitchExtract(rc, idx, sh.t, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/value")
		})
	}
}
