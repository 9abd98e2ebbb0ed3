package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestEvalKeysBytesPinned: the bundle a TestParams client uploads hashes
// to the checked-in digest. Session IDs are the SHA-256 of these bytes
// and stored objects are named by them, so the digest is fixed, not
// regenerated: a change that moves it strands every acked session.
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

// TestWireCodecAllocs bounds the codec's allocations by what it builds,
// not by the words it moves: a TestParams bundle of 260 k words decodes
// in allocations proportional to its polynomials and keyswitch rows, and
// writing a bundle or reading one ciphertext costs a small constant.
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
	}); n >= 2000 {
		t.Errorf("ReadEvalKeys allocates %v times, want < 2000", n)
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
