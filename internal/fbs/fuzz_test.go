package fbs

import (
	"testing"

	"athena/internal/ring"
)

// FuzzInterpolate: any byte-derived table over Z_257 (t − 1 a power of
// two) or Z_97 (t − 1 = 3·2⁵, picked by the first byte) must interpolate
// to a polynomial that reproduces it at the probed points.
func FuzzInterpolate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 128, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		tq := uint64(257)
		if len(data) > 0 && data[0]&1 == 1 {
			tq = 97
		}
		tm := ring.NewModulus(tq)
		l := &LUT{T: tq, Table: make([]uint64, tq)}
		for k := range l.Table {
			if len(data) > 0 {
				l.Table[k] = uint64(data[k%len(data)]) % tq
			}
		}
		c := l.Interpolate()
		for _, x := range []uint64{0, 1, 48, 64, 96, 128 % tq, 200 % tq, tq - 1} {
			if evalPoly(c, x, tm) != l.Table[x] {
				t.Fatalf("t=%d: FBS(%d) != LUT(%d)", tq, x, x)
			}
		}
	})
}

// FuzzSplit: for any modulus and sum capacity the chooser either picks a
// split whose digits index every coefficient 0 … t−1 exactly once with no
// empty giant step or middle sum, whose depth is within the flat split's,
// whose sums fit the capacity and whose weighted count is no greater than
// the flat split's where that one fits too — or, only when no product
// fits an accumulator or t has no baby step in [2, t), it fails.
func FuzzSplit(f *testing.F) {
	f.Add(uint16(257), uint16(7))
	f.Add(uint16(12289), uint16(10921))
	f.Add(uint16(17), uint16(1))
	f.Add(uint16(2), uint16(100))
	f.Add(uint16(97), uint16(0))
	f.Fuzz(func(t *testing.T, tq16, cap16 uint16) {
		tq, capacity := int(tq16)%(1<<14), int(cap16)
		s, err := chooseSplit(tq, capacity)
		if tq < 3 || capacity < 1 {
			if err == nil {
				t.Fatalf("t=%d capacity=%d: chose %+v", tq, capacity, s)
			}
			return
		}
		if err != nil {
			t.Fatalf("t=%d capacity=%d: %v", tq, capacity, err)
		}
		if s.bs < 2 || s.g1 < 2 || s.g2 < 1 || s.g1*(s.g2-1) >= s.gs || s.g1*s.g2 < s.gs {
			t.Fatalf("t=%d capacity=%d: digits %+v", tq, capacity, s)
		}
		seen := make([]int, tq)
		for a2 := 0; a2 < s.g2; a2++ {
			for a1 := 0; a1 < s.g1 && a1+s.g1*a2 < s.gs; a1++ {
				row := 0
				for b := 0; b < s.bs; b++ {
					if i := b + s.bs*(a1+s.g1*a2); i < tq {
						seen[i]++
						row++
					}
				}
				if row == 0 {
					t.Fatalf("t=%d split %+v: giant step %d + %d·%d is empty", tq, s, a1, s.g1, a2)
				}
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("t=%d split %+v: coefficient %d indexed %d times", tq, s, i, n)
			}
		}
		flat, err := flatSplit(tq)
		if err != nil {
			t.Fatal(err)
		}
		if s.depth() > flat.depth() || s.terms() > capacity {
			t.Fatalf("t=%d capacity=%d: split %+v has depth %d (flat %d) and sums of %d products", tq, capacity, s, s.depth(), flat.depth(), s.terms())
		}
		if flat.terms() <= capacity && s.cost() > flat.cost() {
			t.Fatalf("t=%d capacity=%d: split %+v costs %d, the flat split %+v %d", tq, capacity, s, s.cost(), flat, flat.cost())
		}
	})
}
