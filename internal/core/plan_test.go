package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
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
// moved only with a reason. It last moved when every key was cut to the
// level that reads it; the full-chain bundles written before still
// decode and evaluate identically (TestFullChainBundleStillLoads), so no
// acked session is stranded.
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
// key and packing baby over the full chain, 2 086 112 bytes.
const fullChainDigest = "660dc443f2e19f1f70ea12704beff48105bb7411924c0d72a4659ce37c663722"

// TestFullChainBundleStillLoads writes the full-chain layout from the
// keys as generated, proves it is the old bytes by their digest, and
// requires the evaluation engine built from it to return encrypted
// logits byte-equal to those of the engine built from today's bundle.
func TestFullChainBundleStillLoads(t *testing.T) {
	p := TestParams()
	client, full, err := newClientEngine(p)
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
	// A server charges a session the engine's bundle size, so the old
	// layout costs what its cut keys hold, not the bytes uploaded.
	if n, err := legacy.EvalKeysSize(); err != nil || n != int64(cur.Len()) {
		t.Fatalf("full-chain engine sized at %d bytes (%v), want today's %d", n, err, cur.Len())
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
// every key travelled over the full chain) and logs its bytes per
// component.
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
	ksk := size(func(w io.Writer) error { return lwe.WriteKeySwitchKey(ek.KSK, w) })
	total := size(e.WriteEvalKeys)
	fbsL, postL := e.ctxF.Level(), e.ctxP.Level()
	t.Logf("eval-keys bytes: total %d | relinearization (level %d) %d | %d galois at FBS level %d: %d | %d galois at post level %d: %d | %d packing babies (level %d) %d | LWE keyswitch key %d",
		total, fbsL, relin, count[fbsL], fbsL, galois[fbsL], count[postL], postL, galois[postL], len(ek.PackKeys), fbsL, babies, ksk)
	if n, err := e.EvalKeysSize(); err != nil || n != int64(total) {
		t.Errorf("EvalKeysSize %d (%v), bundle written is %d bytes", n, err, total)
	}
	if n := bfv.KeySetWireSize(ek.KeySet); n != int64(keySet(ek.KeySet)) {
		t.Errorf("KeySetWireSize %d, key set written is %d bytes", n, keySet(ek.KeySet))
	}
	if total > 720_000 {
		t.Errorf("TestParams bundle is %d bytes, want ≤ 720 000", total)
	}
}

// TestWireCodecAllocs bounds the codec's allocations by what it builds,
// not by the words it moves: a TestParams bundle of 88 k words decodes
// in allocations proportional to its polynomials and keyswitch rows
// (786 measured, bounded at that + 10 %), and writing a bundle or
// reading one ciphertext costs a small constant.
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
	}); n > 865 {
		t.Errorf("ReadEvalKeys allocates %v times, want ≤ 865", n)
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
	b, err := other.w0.lut(half)
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
