// Package security estimates the classical security level of the
// RLWE/LWE parameter sets used by the Athena framework, following the
// HomomorphicEncryption.org standard tables for ternary secrets. The
// paper claims its parameters (RLWE N=2^15 with log₂Q=720, LWE n=2048
// with q=t) provide more than 128 bits of security; this package
// reproduces that check and guards it with tests.
package security

import (
	"fmt"
	"math"
)

// stdRow is one row of the HE-standard table: for ring/LWE dimension N,
// the maximum log₂(q) admissible at each security level (classical
// attacks, ternary secret distribution).
type stdRow struct {
	n                      int
	max128, max192, max256 float64
}

// heStdTernary is the published table (HomomorphicEncryption.org
// Security Standard, Table 1, uniform ternary secrets, classical).
var heStdTernary = []stdRow{
	{1024, 27, 19, 14},
	{2048, 54, 37, 29},
	{4096, 109, 75, 58},
	{8192, 218, 152, 118},
	{16384, 438, 305, 237},
	{32768, 881, 611, 476},
}

// MaxLogQ returns the maximum modulus size (bits) at dimension n for the
// requested security level (128, 192, or 256), interpolating
// logarithmically between table rows and extrapolating proportionally
// below/above the table range.
func MaxLogQ(n int, level int) (float64, error) {
	var col func(stdRow) float64
	switch level {
	case 128:
		col = func(r stdRow) float64 { return r.max128 }
	case 192:
		col = func(r stdRow) float64 { return r.max192 }
	case 256:
		col = func(r stdRow) float64 { return r.max256 }
	default:
		return 0, fmt.Errorf("security: unsupported level %d", level)
	}
	if n <= 0 {
		return 0, fmt.Errorf("security: dimension %d", n)
	}
	rows := heStdTernary
	if n <= rows[0].n {
		return col(rows[0]) * float64(n) / float64(rows[0].n), nil
	}
	last := rows[len(rows)-1]
	if n >= last.n {
		return col(last) * float64(n) / float64(last.n), nil
	}
	for i := 0; i+1 < len(rows); i++ {
		if n >= rows[i].n && n <= rows[i+1].n {
			// The admissible logq is close to linear in n; interpolate
			// in n between the bracketing rows.
			f := float64(n-rows[i].n) / float64(rows[i+1].n-rows[i].n)
			return col(rows[i]) + f*(col(rows[i+1])-col(rows[i])), nil
		}
	}
	return 0, fmt.Errorf("security: unreachable dimension %d", n)
}

// Level estimates the security level (bits) of an instance with
// dimension n and modulus logQ bits, by scaling from the 128-bit line:
// attacks against (n, q) behave ~linearly in n/log(q) for these ranges,
// so level ≈ 128 · maxLogQ128(n)/logQ (capped for readability).
func Level(n int, logQ float64) float64 {
	if logQ <= 0 {
		return math.Inf(1)
	}
	max128, err := MaxLogQ(n, 128)
	if err != nil {
		return 0
	}
	lvl := 128 * max128 / logQ
	if lvl > 1024 {
		lvl = 1024
	}
	return lvl
}

// Instance describes one lattice assumption used by a parameter set.
type Instance struct {
	Name string
	N    int
	LogQ float64
}

// Report summarizes the estimate for an instance.
type Report struct {
	Instance
	EstimatedBits float64
	Meets128      bool
}

// Check estimates every instance and reports whether all clear 128 bits.
func Check(instances []Instance) ([]Report, bool) {
	out := make([]Report, len(instances))
	all := true
	for i, in := range instances {
		bits := Level(in.N, in.LogQ)
		out[i] = Report{Instance: in, EstimatedBits: bits, Meets128: bits >= 128}
		if bits < 128 {
			all = false
		}
	}
	return out, all
}

// AthenaInstances returns the lattice assumptions behind the paper's
// full-scale parameters: the BFV ring at (2^15, 720 bits), the
// post-extraction LWE at (2048, q = t·2^12 ≈ 2^28 — the widest modulus
// any LWE sample is exposed under during conversion), and Step ③'s ring
// switching key: under s′(X) = z(X^{N/n}) its d·N/n samples are RLWE
// samples of degree n under z at that same modulus qMid.
func AthenaInstances() []Instance {
	return []Instance{
		{Name: "RLWE (BFV ring)", N: 1 << 15, LogQ: 720},
		{Name: "LWE (post-extraction)", N: 2048, LogQ: 28},
		{Name: "RLWE_n (ring switching key)", N: 2048, LogQ: 28},
	}
}
