package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"athena/internal/bfv"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/qnn"
	"athena/internal/ring"
)

// TestEvalKeysBytesPinned: the bundle a TestParams client uploads hashes
// to the checked-in digest. Session IDs are the SHA-256 of these bytes
// and stored objects are named by them, so the digest is a strict pin,
// moved only with a reason. It last moved when the giant steps of the
// packer and of S2C came to be summed by Horner's rule, which reads one
// rotation key where one per giant step was read (159 424 bytes; 327 328
// with a key per giant step of either). It moved before when
// every key came to travel as its mask seed and its B rows (bundle
// version 3; 610 848 bytes at version 2, with the ring-level keyswitch
// key, and 706 080 at version 1, with the per-value matrix key): a
// bundle of an earlier version is refused with a *BundleVersionError,
// and its session uploads its keys again. Within a version, the
// full-chain layout and a bundle that still carries the giant keys
// decode and evaluate identically (TestFullChainBundleStillLoads,
// TestGiantKeyBundleStillLoads).
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
// key and packing baby over the full chain, 686 240 bytes at version 3
// since the giant steps read one rotation key (1 021 472 with a key per
// giant step; 1 990 880 at version 2, 2 086 112 at version 1).
const fullChainDigest = "8aac1a504bfae55036380078bb325f8d7cce3db23af95c57f03d9da679d11f90"

// TestFullChainBundleStillLoads generates the full-chain layout from the
// client's seeds, proves it is the pinned bytes by their digest, and
// requires it to load as today's bundle (checkStillLoads): the keys born
// at their level are the full-chain keys' prefixes.
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
	checkStillLoads(t, legacy)
}

// TestGiantKeyBundleStillLoads: a version-3 bundle written before the
// giant steps were summed by Horner's rule also holds a rotation key per
// giant step, the packer's at the FBS level and S2C's at the post level.
// It decodes and validates, its unread keys are dropped when the keys are
// cut to their levels of use, and it loads as today's bundle
// (checkStillLoads).
func TestGiantKeyBundleStillLoads(t *testing.T) {
	p := TestParams()
	client, gen, err := newClientEngine(p, false)
	if err != nil {
		t.Fatal(err)
	}
	// The giant rotations beyond the first, a·bs for the packer and a·bc
	// for S2C, under the client's secret; a packer rotation S2C also read
	// stays at the packer's level.
	kg := bfv.NewKeyGenerator(client.Ctx, p.Seed^0x61a7)
	old := 0
	addGiants := func(step, count, level int) {
		for a := 2; a < count; a++ {
			g := ring.GaloisElementForRotation(client.Ctx.N, a*step)
			if gen.KeySet.Galois[g] == nil {
				gen.KeySet.Galois[g] = kg.GenGaloisKey(client.sk, g, level)
				old++
			}
		}
	}
	bs := pack.BabySteps(p.LWEDim)
	addGiants(bs, p.LWEDim/bs, client.ctxF.Level())
	bc := pack.BabySteps(client.ctxP.N / 2)
	addGiants(bc, client.ctxP.N/2/bc, client.ctxP.Level())
	if old == 0 {
		t.Fatal("TestParams has no giant rotation beyond the first")
	}
	var blob bytes.Buffer
	if err := client.writeEvalKeys(gen, &blob); err != nil {
		t.Fatal(err)
	}
	ek, err := ReadEvalKeys(p, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatalf("bundle with %d old giant keys refused: %v", old, err)
	}
	if got, want := len(ek.KeySet.Galois), len(client.galois)+old; got != want {
		t.Fatalf("decoded %d Galois keys, want %d", got, want)
	}
	legacy, err := NewEvaluationEngine(p, ek)
	if err != nil {
		t.Fatal(err)
	}
	held := legacy.ev.Keys().Galois
	if len(held) != len(client.galois) {
		t.Fatalf("engine holds %d Galois keys, the evaluation reads %d", len(held), len(client.galois))
	}
	for _, u := range client.galois {
		if held[u.g] == nil {
			t.Fatalf("engine dropped Galois key %d, which the evaluation reads", u.g)
		}
	}
	t.Logf("bundle of %d bytes with %d old giant keys: %d Galois keys held", blob.Len(), old, len(held))
	checkStillLoads(t, legacy)
}

// checkStillLoads requires legacy, an evaluation engine built from a
// TestParams bundle of an older layout, to re-export today's bundle byte
// for byte, to be charged today's EvalKeysSize — a server charges a
// session what its keys hold at their levels of use, not the bytes
// uploaded — and to return encrypted logits byte-equal to, and
// decrypting as, those of the engine built from today's bundle.
func checkStillLoads(t *testing.T, legacy *Engine) {
	t.Helper()
	e := testEngine(t)
	var cur bytes.Buffer
	if err := e.WriteEvalKeys(&cur); err != nil {
		t.Fatal(err)
	}
	today, err := NewEvaluationEngineFromReader(e.P, bytes.NewReader(cur.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := legacy.WriteEvalKeys(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), cur.Bytes()) {
		t.Fatal("the old bundle's engine re-exports bytes other than today's bundle")
	}
	want, err := today.EvalKeysSize()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := legacy.EvalKeysSize(); err != nil || n != want {
		t.Fatalf("old bundle's engine sized at %d bytes (%v), want today's %d", n, err, want)
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
	var plain [2][]int64
	for i, srv := range []*Engine{legacy, today} {
		out, err := srv.EvaluateEncrypted(net, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WriteEncryptedLogits(out, &logits[i]); err != nil {
			t.Fatal(err)
		}
		if plain[i], err = e.DecryptLogits(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logits[0].Bytes(), logits[1].Bytes()) || fmt.Sprint(plain[0]) != fmt.Sprint(plain[1]) {
		t.Fatalf("the old bundle's engine returns logits %v, today's %v", plain[0], plain[1])
	}
}

// TestEvalKeysSize bounds the TestParams bundle (2 086 112 bytes when
// every key travelled over the full chain, 706 080 with the per-value
// keyswitch matrix, 610 848 with the ring-level key, 327 328 with every
// key shipped as its seed and its B rows, 159 424 since the giant steps
// read one rotation key), logs its bytes per component, and checks that
// the memory a session is charged, EvalKeysSize, is the bundle with
// every seed expanded into its A rows: 275 760 bytes (610 848 with a
// rotation key per giant step).
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
	if total > 165_000 {
		t.Errorf("TestParams bundle is %d bytes, want ≤ 165 000", total)
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
	if n, err := e.EvalKeysSize(); err != nil || n != resident || n != 275_760 {
		t.Errorf("EvalKeysSize %d (%v), want the expanded keys' %d bytes and 275 760", n, err, resident)
	}
}

// TestEvalKeyShapes: the key shapes counted from the parameters alone
// add up to the bundle WriteEvalKeys writes and to EvalKeysSize, so the
// FullParams figures athena-keygen -dry-run prints are what an engine
// would upload and hold.
func TestEvalKeyShapes(t *testing.T) {
	e := testEngine(t)
	shapes, wire, held, err := EvalKeyShapes(e.P)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteEvalKeys(&buf); err != nil {
		t.Fatal(err)
	}
	size, err := e.EvalKeysSize()
	if err != nil {
		t.Fatal(err)
	}
	if wire != int64(buf.Len()) || held != size {
		t.Fatalf("shapes count %d bytes on the wire and %d held, the engine %d and %d", wire, held, buf.Len(), size)
	}
	galois := 0
	for _, s := range shapes {
		t.Logf("%d × %s at level %d: %d bytes on the wire, %d held", s.Count, s.Kind, s.Level, s.Wire, s.Held)
		if s.Kind == "galois key" {
			galois += s.Count
		}
	}
	if galois != len(e.galois) {
		t.Fatalf("shapes list %d Galois keys, the engine reads %d", galois, len(e.galois))
	}
}

// TestWireCodecAllocs bounds the codec's allocations by what it builds,
// not by the words it moves: a TestParams bundle decodes in allocations
// proportional to its polynomials and keyswitch rows (786 measured when
// the A rows travelled; 690 once each key's A was expanded from its seed
// into one backing array; 337 since no companion array is derived per
// key row; 220 since the giant steps read one rotation key, bounded at
// that + 10 %), and writing a bundle or reading one
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
	}); n > 242 {
		t.Errorf("ReadEvalKeys allocates %v times, want ≤ 242", n)
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
// 1.2× at TestParams (303 288 bytes for a 275 760-byte charge, 1.10×;
// 663 672 for 610 848, 1.09×, with a rotation key per giant step). Decoding derives nothing per coefficient from the
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

// TestSigmaZeroIsDefault: a Sigma of 0 selects ring.DefaultSigma for
// every key — the Step ③ switching key as well as bfv's — and for the
// margin E: the two Params share one plan, so one E, and engines at one
// seed write byte-identical evaluation-key bundles.
func TestSigmaZeroIsDefault(t *testing.T) {
	p := TestParams()
	p.Sigma = 0
	a, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	b := testEngine(t)
	if a.plan != b.plan || a.EmsMargin() != b.EmsMargin() {
		t.Fatalf("Sigma 0 and %v: plans %p and %p, E = %d and %d", ring.DefaultSigma, a.plan, b.plan, a.EmsMargin(), b.EmsMargin())
	}
	var ka, kb bytes.Buffer
	if err := a.WriteEvalKeys(&ka); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteEvalKeys(&kb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka.Bytes(), kb.Bytes()) {
		t.Fatalf("Sigma 0 and %v write different eval-key bundles (%d and %d bytes)", ring.DefaultSigma, ka.Len(), kb.Len())
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
