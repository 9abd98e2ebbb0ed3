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
