package pack

import (
	"runtime"
	"sync"
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
)

// packCTBytes flattens a ciphertext for bit-identity comparison.
func packCTBytes(ct *bfv.Ciphertext) []uint64 {
	var out []uint64
	for _, poly := range [][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs} {
		for _, limb := range poly {
			out = append(out, limb...)
		}
	}
	return out
}

func samePackCT(a, b *bfv.Ciphertext) bool {
	x, y := packCTBytes(a), packCTBytes(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestPackBitIdenticalAcrossGOMAXPROCS pins the determinism contract of
// the giant-step fan-out: PackInto output is bit-identical whether the
// BSGS loop runs inline or fans out.
func TestPackBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	k := newKit(t, 6, 3)
	sk := lwe.NewSecretKey(16, 31)
	p, err := NewPacker(k.ctx, k.enc, sk)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(32)
	cts := make([]lwe.Ciphertext, k.ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(sk, uint64(i)%k.ctx.Params.T, k.ctx.Params.T, 3.2, smp)
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var want *bfv.Ciphertext
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := pack(p, ev, cts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !samePackCT(got, want) {
			t.Fatalf("GOMAXPROCS=%d: Pack output differs from serial result", procs)
		}
	}
}

// TestPackConcurrentScratches checks that distinct Scratches over one
// Packer can pack concurrently and agree with the sequential result.
func TestPackConcurrentScratches(t *testing.T) {
	k := newKit(t, 6, 3)
	sk := lwe.NewSecretKey(16, 41)
	p, err := NewPacker(k.ctx, k.enc, sk)
	if err != nil {
		t.Fatal(err)
	}
	ev := k.evaluator(p.GaloisElements())
	smp := lwe.NewStream(42)
	const jobs = 5
	batches := make([][]lwe.Ciphertext, jobs)
	want := make([]*bfv.Ciphertext, jobs)
	for j := range batches {
		batches[j] = make([]lwe.Ciphertext, 20+j)
		for i := range batches[j] {
			batches[j][i] = lwe.Encrypt(sk, uint64(j*37+i)%k.ctx.Params.T, k.ctx.Params.T, 3.2, smp)
		}
		want[j], err = pack(p, ev, batches[j])
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*bfv.Ciphertext, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got[j], errs[j] = pack(p, ev.ShallowCopy(), batches[j])
		}(j)
	}
	wg.Wait()
	for j := range got {
		if errs[j] != nil {
			t.Fatal(errs[j])
		}
		if !samePackCT(got[j], want[j]) {
			t.Fatalf("job %d: concurrent Pack differs from sequential", j)
		}
	}
}

// TestPackMissingKeyFails: a fold whose rotation key is absent fails the
// call, inline or fanned out, with no lane left waiting on the fold, and
// the scratch packs correctly again with the key present.
func TestPackMissingKeyFails(t *testing.T) {
	k := newKit(t, 6, 3)
	sk := lwe.NewSecretKey(16, 71)
	p, err := NewPacker(k.ctx, k.enc, sk)
	if err != nil {
		t.Fatal(err)
	}
	smp := lwe.NewStream(72)
	cts := make([]lwe.Ciphertext, k.ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(sk, uint64(i)%k.ctx.Params.T, k.ctx.Params.T, 0, smp)
	}
	keyless, ev := k.evaluator(nil), k.evaluator(p.GaloisElements())
	want, err := pack(p, ev, cts)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		sc, out := p.NewScratch(), k.ctx.NewCiphertext()
		if err := p.PackInto(keyless, sc, cts, out); err == nil {
			t.Fatalf("GOMAXPROCS=%d: packed without the rotation key", procs)
		}
		if err := p.PackInto(ev, sc, cts, out); err != nil {
			t.Fatal(err)
		}
		if !samePackCT(out, want) {
			t.Fatalf("GOMAXPROCS=%d: the scratch of a failed call packs other bytes", procs)
		}
	}
}
