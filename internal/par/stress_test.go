package par_test

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"athena/internal/par"
)

// mix is a splitmix64-style finalizer: enough arithmetic per index to
// mimic coefficient work, fully determined by the index.
func mix(i int) uint64 {
	z := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// forEachOutput runs a ForEach workload whose per-index result chains
// several wide multiplies, writing only i-indexed state.
func forEachOutput(n int) []uint64 {
	out := make([]uint64, n)
	par.ForEach(n, func(_, i int) {
		v := mix(i)
		for r := 0; r < 8; r++ {
			hi, lo := bits.Mul64(v, mix(i+r))
			v = hi ^ lo
		}
		out[i] = v
	})
	return out
}

// TestStressDeterministicAcrossGOMAXPROCS verifies the fork-join
// contract end to end: the same workload run serially (GOMAXPROCS=1),
// with minimal parallelism (2), and with full parallelism (NumCPU)
// produces bit-identical outputs on every repetition. Run under
// `go test -race` this also shakes out scheduler-dependent races in the
// helpers themselves.
func TestStressDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 1 << 13
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	ref := forEachOutput(n)

	procsList := []int{1, 2, runtime.NumCPU()}
	for _, procs := range procsList {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 4; rep++ {
				got := forEachOutput(n)
				for i := 0; i < n; i++ {
					if got[i] != ref[i] {
						t.Fatalf("rep %d: ForEach output[%d] = %#x, serial run gave %#x", rep, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestStressConcurrentReadsOfSharedInput pins down that concurrent
// reads of captured immutable state are safe and deterministic — the
// usage pattern every hot path relies on (shared twiddle tables, shared
// input polynomials).
func TestStressConcurrentReadsOfSharedInput(t *testing.T) {
	const n = 1 << 13
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	shared := make([]uint64, n)
	for i := range shared {
		shared[i] = mix(i)
	}
	run := func() []uint64 {
		out := make([]uint64, n)
		par.ForEach(n, func(_, i int) {
			acc := shared[i]
			acc += shared[(i+n/2)%n]
			acc ^= shared[n-1-i]
			out[i] = acc
		})
		return out
	}
	runtime.GOMAXPROCS(1)
	ref := run()
	for _, procs := range []int{2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		got := run()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("procs=%d: output[%d] differs from serial run", procs, i)
			}
		}
	}
}
