package core

import "testing"

// BenchmarkNewEngine times a client's key generation — the secret and
// public keys, Step ③'s keyswitch key, the packing babies and every
// switching key at its level of use — on a plan built outside the timer,
// at TestParams, at the single_t12289 benchmark shape and at
// MediumParams (run the last with -benchtime 1x).
func BenchmarkNewEngine(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"TestParams", TestParams()},
		{"T12289", Params{LogN: 9, QiBits: 55, QiNum: 10, T: 12289, LWEDim: 64, MidExp: 12, KSBase: 1 << 7, Seed: 3}},
		{"MediumParams", MediumParams()},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := planFor(c.p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := NewEngine(c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
