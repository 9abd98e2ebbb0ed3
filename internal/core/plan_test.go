package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/qnn"
)

// TestEvalKeysBytesPinned: the bundle a TestParams client uploads hashes
// to the checked-in digest. Session IDs are the SHA-256 of these bytes
// and stored objects are named by them, so the digest is a strict pin,
// moved only with a reason. It last moved when every key came to travel
// as its mask seed and its B rows (bundle version 3, 327 328 bytes; 610
// 848 at version 2, with the ring-level keyswitch key, and 706 080 at
// version 1, with the per-value matrix key): a bundle of an earlier
// version is refused with a *BundleVersionError, and its session uploads
// its keys again. Within a version, the full-chain layout still decodes
// and evaluates identically (TestFullChainBundleStillLoads).
func TestEvalKeysBytesPinned(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	if err := e.WriteEvalKeys(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "evalkeys_testparams.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Fatalf("eval-keys bundle (%d bytes) hashes to %s, pinned %s", buf.Len(), got, strings.TrimSpace(string(want)))
	}
}

// fullChainDigest is the SHA-256 of the TestParams bundle in the layout
// written before keys were cut to their level of use: every switching
// key and packing baby over the full chain, 1 021 472 bytes at version 3
// (1 990 880 at version 2, 2 086 112 at version 1).
const fullChainDigest = "f46b3e1ad79e9e18925ec683340072897bb7fa639d74af55756c97a41f236cb9"

// TestFullChainBundleStillLoads generates the full-chain layout from the
// client's seeds, proves it is the pinned bytes by their digest, and
// requires the evaluation engine built from it to re-export today's
// bundle byte for byte — the keys born at their level are the full-chain
// keys' prefixes — and to return encrypted logits byte-equal to those of
// the engine built from today's bundle.
func TestFullChainBundleStillLoads(t *testing.T) {
	p := TestParams()
	client, full, err := newClientEngine(p, true)
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := client.writeEvalKeys(full, &old); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(old.Bytes()); hex.EncodeToString(sum[:]) != fullChainDigest {
		t.Fatalf("full-chain bundle (%d bytes) hashes to %x, want %s", old.Len(), sum, fullChainDigest)
	}
	legacy, err := NewEvaluationEngineFromReader(p, bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatalf("full-chain bundle refused: %v", err)
	}

	e := testEngine(t)
	var cur bytes.Buffer
	if err := e.WriteEvalKeys(&cur); err != nil {
		t.Fatal(err)
	}
	trimmed, err := NewEvaluationEngineFromReader(p, bytes.NewReader(cur.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Cut to their levels of use, the old keys are today's keys.
	var re bytes.Buffer
	if err := legacy.WriteEvalKeys(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), cur.Bytes()) {
		t.Fatal("the full-chain bundle's engine re-exports bytes other than today's bundle")
	}
	// A server charges a session what its keys hold at their levels of
	// use, so the old layout costs what its cut keys hold, not the bytes
	// uploaded.
	want, err := trimmed.EvalKeysSize()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := legacy.EvalKeysSize(); err != nil || n != want {
		t.Fatalf("full-chain engine sized at %d bytes (%v), want today's %d", n, err, want)
	}

	net := evalKeysTestNet()
	x := qnn.NewIntTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = int64(i % 8)
	}
	in, err := e.EncryptInput(net, x)
	if err != nil {
		t.Fatal(err)
	}
	var logits [2]bytes.Buffer
	for i, srv := range []*Engine{legacy, trimmed} {
		out, err := srv.EvaluateEncrypted(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WriteEncryptedLogits(out, &logits[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logits[0].Bytes(), logits[1].Bytes()) {
		t.Fatal("encrypted logits differ between the full-chain and the trimmed bundle")
	}
}

// TestEvalKeysSize bounds the TestParams bundle (2 086 112 bytes when
// every key travelled over the full chain, 706 080 with the per-value
// keyswitch matrix, 610 848 with the ring-level key, 327 328 with every
// key shipped as its seed and its B rows), logs its bytes per component,
// and checks that the memory a session is charged, EvalKeysSize, is the
// bundle with every seed expanded into its A rows: 610 848 bytes.
func TestEvalKeysSize(t *testing.T) {
	e := testEngine(t)
	ek, err := e.EvalKeys()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	size := func(write func(io.Writer) error) int {
		buf.Reset()
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	keySet := func(ks *bfv.KeySet) int {
		return size(func(w io.Writer) error { return e.Ctx.WriteKeySet(ks, w) })
	}
	empty := keySet(&bfv.KeySet{})
	relin := keySet(&bfv.KeySet{Relin: ek.KeySet.Relin}) - empty
	galois := map[int]int{} // bytes by level of use
	count := map[int]int{}
	for _, u := range e.galois {
		galois[u.level] += keySet(&bfv.KeySet{Galois: map[uint64]*bfv.GaloisKey{u.g: ek.KeySet.Galois[u.g]}}) - empty
		count[u.level]++
	}
	babies := 0
	for _, ct := range ek.PackKeys {
		babies += size(func(w io.Writer) error { return e.Ctx.WriteCiphertext(ct, w) })
	}
	ksk := size(func(w io.Writer) error { return lwe.WriteKey(ek.KSK, w) })
	total := size(e.WriteEvalKeys)
	fbsL, postL := e.ctxF.Level(), e.ctxP.Level()
	t.Logf("eval-keys bytes: total %d | relinearization (level %d) %d | %d galois at FBS level %d: %d | %d galois at post level %d: %d | %d packing babies (level %d) %d | LWE keyswitch key %d",
		total, fbsL, relin, count[fbsL], fbsL, galois[fbsL], count[postL], postL, galois[postL], len(ek.PackKeys), fbsL, babies, ksk)
	if total > 335_000 {
		t.Errorf("TestParams bundle is %d bytes, want ≤ 335 000", total)
	}

	// Expanding a key swaps its four seed words for its A polynomials,
	// each framed as a limb count and, per limb, a length and N words.
	expanded := int64(-4) // the keyswitch key's seed; its A_d are N words each
	for range ek.KSK.Digits {
		expanded += int64(e.Ctx.N)
	}
	swk := func(s *bfv.SwitchingKey) {
		expanded -= 4
		for _, a := range s.A {
			expanded += 1 + int64(a.Level())*(1+int64(e.Ctx.N))
		}
	}
	swk(&ek.KeySet.Relin.SwitchingKey)
	for _, gk := range ek.KeySet.Galois {
		swk(&gk.SwitchingKey)
	}
	resident := int64(total) + 8*expanded
	if n, err := e.EvalKeysSize(); err != nil || n != resident || n != 610_848 {
		t.Errorf("EvalKeysSize %d (%v), want the expanded keys' %d bytes and 610 848", n, err, resident)
	}
}

// TestWireCodecAllocs bounds the codec's allocations by what it builds,
// not by the words it moves: a TestParams bundle decodes in allocations
// proportional to its polynomials and keyswitch rows (786 measured when
// the A rows travelled; 690 once each key's A was expanded from its seed
// into one backing array; 337 since no companion array is derived per
// key row, bounded at that + 10 %), and writing a bundle or reading one
// ciphertext costs a small constant.
func TestWireCodecAllocs(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	if n := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := e.WriteEvalKeys(&buf); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("WriteEvalKeys allocates %v times, want ≤ 8", n)
	}
	blob := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(blob)
	if n := testing.AllocsPerRun(5, func() {
		rd.Reset(blob)
		if _, err := ReadEvalKeys(TestParams(), rd); err != nil {
			t.Fatal(err)
		}
	}); n > 371 {
		t.Errorf("ReadEvalKeys allocates %v times, want ≤ 371", n)
	}

	ct := e.enc.Encrypt(e.cod.EncodeCoeffs([]int64{1, 2, 3}))
	buf.Reset()
	if err := e.Ctx.WriteCiphertext(ct, &buf); err != nil {
		t.Fatal(err)
	}
	blob = append([]byte(nil), buf.Bytes()...)
	if n := testing.AllocsPerRun(20, func() {
		rd.Reset(blob)
		if _, err := e.Ctx.ReadCiphertext(rd); err != nil {
			t.Fatal(err)
		}
	}); n > 10 {
		t.Errorf("ReadCiphertext allocates %v times, want ≤ 10", n)
	}
}

// TestReadEvalKeysResidentBytes: a decoded session allocates little more
// than EvalKeysSize, the bytes the serve registry charges it — at most
// 1.2× at TestParams. Decoding derives nothing per coefficient from the
// key rows beyond the LWE key's NTT images; a companion array per row
// would double the count.
func TestReadEvalKeysResidentBytes(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	if err := e.WriteEvalKeys(&buf); err != nil {
		t.Fatal(err)
	}
	size, err := e.EvalKeysSize()
	if err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ReadEvalKeys(TestParams(), bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("ReadEvalKeys: %d bytes in %d allocations for a %d-byte charge (%.2f×)", got, allocs, size, float64(got)/float64(size))
	if float64(got) > 1.2*float64(size) {
		t.Errorf("ReadEvalKeys allocates %d bytes, over 1.2 × EvalKeysSize = %d", got, size)
	}
}

// TestPlanShared: engines whose Params differ only in Seed share one
// plan; any other difference, a level schedule included, gets its own.
func TestPlanShared(t *testing.T) {
	p := TestParams()
	a, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 99
	b, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.plan != b.plan {
		t.Fatal("engines differing only in Seed built two plans")
	}
	if a.sk == b.sk || a.ev == b.ev {
		t.Fatal("engines share per-session key material")
	}
	p.FBSLevel = 4
	c, err := planFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if c == a.plan {
		t.Fatal("a different FBSLevel reused the plan")
	}
	if c.ctxF.Level() != 4 || a.ctxF.Level() != 5 {
		t.Fatalf("FBS levels %d and %d, want 4 and 5", c.ctxF.Level(), a.ctxF.Level())
	}
}

// TestPlanRejectsInexactKSBase: a keyswitch base the fused extraction
// kernel cannot run exactly — not a power of two, or so large that
// (base−1)(qMid−1) + qMid overflows a word — fails the plan build with
// an error, before any key is generated or decoded.
func TestPlanRejectsInexactKSBase(t *testing.T) {
	for _, base := range []uint64{1, 100, 1 << 45} {
		p := TestParams()
		p.KSBase = base
		if _, err := planFor(p); err == nil || !strings.Contains(err.Error(), "keyswitch base") {
			t.Errorf("KSBase %d: plan error %v", base, err)
		}
		if _, err := NewEngine(p); err == nil {
			t.Errorf("KSBase %d: engine built", base)
		}
	}
}

// TestPlanLUTsByContent: a table is compiled once per plan, whichever
// function value, layer or session asks for it, and a lookup that hits
// allocates nothing.
func TestPlanLUTsByContent(t *testing.T) {
	e := testEngine(t)
	p := TestParams()
	p.Seed = 77
	other, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	half := func(x int64) int64 { return roundDiv(x, 2) }
	a, err := e.w0.divideFor(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.w0.lut(other.whole, half)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.w0.scaledEvaluator(half, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || b != c {
		t.Fatal("one table compiled into several evaluators")
	}
	d, err := e.w0.divideFor(3)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("different tables share an evaluator")
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.w0.divideFor(2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a cached LUT lookup allocates %v times, want 0", n)
	}
}

// TestSessionsShareOnePlanConcurrently: two sessions under different
// keys, on one plan built cold for them, evaluate at the same time (run
// it under -race) and produce exactly the ciphertexts and logits of a
// serial run — so the plan's lazily filled LUT and shift tables are
// safe to share.
func TestSessionsShareOnePlanConcurrently(t *testing.T) {
	p := TestParams()
	p.FBSLevel = 5 // the default schedule under a key no other test uses: a cold plan
	net := maskNet()
	type session struct {
		client, server *Engine
		ins            []*EncryptedInput
	}
	sessions := make([]*session, 2)
	for i := range sessions {
		cp := p
		cp.Seed = uint64(40 + i)
		client, err := NewEngine(cp)
		if err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if err := client.WriteEvalKeys(&blob); err != nil {
			t.Fatal(err)
		}
		server, err := NewEvaluationEngineFromReader(p, &blob)
		if err != nil {
			t.Fatal(err)
		}
		if server.plan != client.plan || (i > 0 && server.plan != sessions[0].server.plan) {
			t.Fatal("sessions at one Params built separate plans")
		}
		s := &session{client: client, server: server}
		for j := 0; j < 2; j++ {
			in, err := client.EncryptInput(net, randInput(1, 4, 4, 7, uint64(50+2*i+j)))
			if err != nil {
				t.Fatal(err)
			}
			s.ins = append(s.ins, in)
		}
		sessions[i] = s
	}

	run := func(s *session) ([]byte, [][]int64, error) {
		outs, err := s.server.EvaluateEncryptedBatch(net, s.ins)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		var logits [][]int64
		for _, out := range outs {
			if err := s.server.WriteEncryptedLogits(out, &buf); err != nil {
				return nil, nil, err
			}
			l, err := s.client.DecryptLogits(out)
			if err != nil {
				return nil, nil, err
			}
			logits = append(logits, l)
		}
		return buf.Bytes(), logits, nil
	}

	concurrent := make([][]byte, len(sessions))
	concLogits := make([][][]int64, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], concLogits[i], errs[i] = run(s)
		}()
	}
	wg.Wait()
	for i, s := range sessions {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, logits, err := run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial, concurrent[i]) {
			t.Fatalf("session %d: concurrent ciphertexts differ from the serial run", i)
		}
		for j := range logits {
			compareLogits(t, concLogits[i][j], logits[j], 0)
		}
	}
}
