package fbs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"athena/internal/bfv"
)

// updateGolden rewrites testdata/evaluate_t257.sha256: the digest of one
// FBS output on the 13 × 5 × 4 split the chooser picks there. Regenerate
// it only for a change that is meant to alter FBS output bytes (a new
// split, a new order of roundings); a change of schedule must leave it
// passing.
var updateGolden = flag.Bool("update", false, "rewrite the golden FBS output digest")

// serializeCT flattens a ciphertext's coefficient words for bit-identity
// comparison.
func serializeCT(t *testing.T, ct *bfv.Ciphertext) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, poly := range [][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs} {
		for _, limb := range poly {
			for _, v := range limb {
				buf.WriteByte(byte(v))
				buf.WriteByte(byte(v >> 8))
				buf.WriteByte(byte(v >> 16))
				buf.WriteByte(byte(v >> 24))
				buf.WriteByte(byte(v >> 32))
				buf.WriteByte(byte(v >> 40))
				buf.WriteByte(byte(v >> 48))
				buf.WriteByte(byte(v >> 56))
			}
		}
	}
	return buf.Bytes()
}

// TestEvaluateBitIdenticalAcrossGOMAXPROCS pins the determinism contract
// of the parallel schedule — the level-parallel power ladders and the
// fan-out over the middle sums: the output ciphertext is bit-identical at
// every worker count, and its digest is the one checked in under
// testdata, so the test pins the bytes across changes of schedule, not
// only identity across worker counts. t = 257 on the split 13 × 5 × 4
// gives ladder levels that do not split evenly — baby powers in levels of
// 1, 2, 4, 5, y powers in levels of 1, 2, 1, z powers in levels of 1, 1 —
// and four middle sums of five rows, a group of four and a group of one.
func TestEvaluateBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	ctx, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	lut := NewLUT(257, func(x int64) int64 {
		if x < 0 {
			return -x / 2
		}
		return x / 3
	})
	vals := make([]int64, ctx.N)
	rng := rand.New(rand.NewPCG(11, 12))
	for i := range vals {
		vals[i] = int64(rng.Uint64N(257)) - 128
	}
	ct := enc.Encrypt(cod.EncodeSlots(vals))

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var want []byte
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		fe, err := NewEvaluator(ctx, lut)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fe.Evaluate(ev.ShallowCopy(), ct)
		if err != nil {
			t.Fatal(err)
		}
		blob := serializeCT(t, out)
		if want == nil {
			want = blob
			continue
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("GOMAXPROCS=%d: FBS output differs from serial result", procs)
		}
	}

	sum := sha256.Sum256(want)
	got := hex.EncodeToString(sum[:])
	golden := filepath.Join("testdata", "evaluate_t257.sha256")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSum, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden digest: %v", err)
	}
	if got != strings.TrimSpace(string(wantSum)) {
		t.Fatalf("FBS output digest %s != golden %s: the schedule changed a byte of the result", got, strings.TrimSpace(string(wantSum)))
	}
}

// TestConcurrentEvaluateWithOwnScratch checks that one compiled
// Evaluator serves several goroutines at once, each with its own Scratch
// and bfv evaluator, and that every result equals the single-goroutine
// one, also when the output is the input itself. Run under -race: the
// plan must be read-only during evaluation.
func TestConcurrentEvaluateWithOwnScratch(t *testing.T) {
	ctx, enc, _, ev, cod := fbsKit(t, 5, 4, 257)
	fe, err := NewEvaluator(ctx, ReLULUT(257))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 2, 3
	cts := make([]*bfv.Ciphertext, workers*perWorker)
	want := make([][]byte, len(cts))
	for i := range cts {
		vals := make([]int64, ctx.N)
		for j := range vals {
			vals[j] = int64((i*131 + j*7) % 257)
		}
		cts[i] = enc.Encrypt(cod.EncodeSlots(vals))
		out, err := fe.Evaluate(ev, cts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serializeCT(t, out)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cts))
	got := make([][]byte, len(cts))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lev, sc := ev.ShallowCopy(), NewScratch()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				out := cts[i].Clone()
				if err := fe.EvaluateInto(lev, sc, out, out); err != nil {
					errs[i] = err
					return
				}
				got[i] = serializeCT(t, out)
			}
		}(w)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("ciphertext %d: concurrent result differs from the single-goroutine one", i)
		}
	}
}
