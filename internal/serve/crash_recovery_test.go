package serve_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"athena/internal/serve"
	"athena/internal/serve/client"
)

// TestServeStoreRestart is the in-process half of the persistence gate:
// a store-enabled server is shut down cleanly and rebuilt on the same
// data dir, and the session uploaded before the restart attaches and
// serves a correct encrypted batch without re-upload.
func TestServeStoreRestart(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	dir := t.TempDir()

	srv1, addr1 := startServer(t, serve.Config{
		MaxWait: 5 * time.Millisecond,
		DataDir: dir,
	})
	c1, err := client.Dial(addr1, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	x := serve.DemoInput(42)
	want := model.ForwardInt(x).Data
	got, err := c1.Infer(model, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !int64sEqual(got, want) {
		t.Fatal("pre-restart inference wrong")
	}
	c1.Close()
	srv1.Shutdown()

	srv2, addr2 := startServer(t, serve.Config{
		MaxWait: 5 * time.Millisecond,
		DataDir: dir,
	})
	if rec := srv2.Recovery(); rec.Entries != 1 {
		t.Fatalf("recovery found %d sessions, want 1 (%+v)", rec.Entries, rec)
	}
	c2, err := client.Dial(addr2, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Attach by ID — no key re-upload.
	if err := c2.Attach(id); err != nil {
		t.Fatalf("attach after restart: %v", err)
	}
	got2, err := c2.Infer(model, serve.DemoInput(43), 0)
	if err != nil {
		t.Fatalf("inference from cold-loaded session: %v", err)
	}
	if !int64sEqual(got2, model.ForwardInt(serve.DemoInput(43)).Data) {
		t.Fatal("post-restart inference wrong")
	}
	snap := srv2.Metrics()
	if snap.Sessions.ColdLoads != 1 {
		t.Fatalf("cold_loads=%d want 1", snap.Sessions.ColdLoads)
	}
	if snap.Store == nil || snap.Store.Entries != 1 {
		t.Fatalf("store snapshot missing or wrong: %+v", snap.Store)
	}
	// An ID nobody uploaded stays a miss.
	c3, err := client.Dial(addr2, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Attach("ffffffffffffffffffffffffffffffff"); err == nil {
		t.Fatal("bogus session ID attached")
	}
}

// int64sEqual compares decrypted logits against the plaintext
// reference within the engine's rounding-noise tolerance (same ±3 band
// the other integration tests use).
func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := a[i] - b[i]; d < -3 || d > 3 {
			return false
		}
	}
	return true
}

// TestCrashRecoverySIGKILL is the hard half of the persistence gate: a
// real athena-serve process is SIGKILLed with an upload torn mid-frame
// on one connection and encrypted batches in flight on another, then
// restarted on the same data dir, in which a torn temp file and a
// truncated object have been planted. Every acked session must serve
// without re-upload; the torn upload must not exist. Gated on
// ATHENA_SERVE_BIN (CI builds the binary; locally: make crash-test).
func TestCrashRecoverySIGKILL(t *testing.T) {
	bin := os.Getenv("ATHENA_SERVE_BIN")
	if bin == "" {
		t.Skip("ATHENA_SERVE_BIN not set; run via make crash-test")
	}
	eng := itEngine(t)
	model := serve.DemoNet()
	dir := t.TempDir()

	addr := freeAddr(t)
	proc := startServeProc(t, bin, addr, dir)

	c1, err := client.Dial(addr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	x := serve.DemoInput(7)
	want := model.ForwardInt(x).Data
	got, err := c1.Infer(model, x, 0)
	if err != nil || !int64sEqual(got, want) {
		t.Fatalf("pre-crash inference: err=%v", err)
	}

	// Torn upload: a SessionNew frame whose header promises far more
	// payload than we send. The server is mid-read when the process dies;
	// nothing about this session was ever acked, so nothing of it may
	// survive.
	torn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	var hdr [serve.FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], serve.ProtoMagic)
	hdr[4] = serve.ProtoVersion
	hdr[5] = byte(serve.FrameSessionNew)
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<20)
	if _, err := torn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write(bytes.Repeat([]byte{0xAA}, 4096)); err != nil {
		t.Fatal(err)
	}

	// Mid-batch: fire encrypted requests and kill without waiting.
	go func() {
		for i := 0; i < 4; i++ {
			in, err := eng.EncryptInput(model, serve.DemoInput(uint64(100+i)))
			if err != nil {
				return
			}
			c1.InferEncrypted(model, in, 0) // may die mid-flight; that's the point
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := proc.Process.Kill(); err != nil { // SIGKILL, no drain
		t.Fatal(err)
	}
	proc.Wait()
	c1.Close()

	// What a power cut can leave beside the acked object: the temp file
	// of an upload that never finished, and — the disk at fault, not the
	// protocol — a truncated file under the torn upload's would-be name.
	tornBlob := bytes.Repeat([]byte{0xAA}, 4096)
	tornID := serve.SessionID(tornBlob)
	if err := os.WriteFile(filepath.Join(dir, tornID+".tmp-123"), tornBlob[:1000], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tornID), tornBlob[:1000], 0o600); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir.
	addr2 := freeAddr(t)
	startServeProc(t, bin, addr2, dir)

	c2, err := client.Dial(addr2, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The acked session attaches without re-upload and computes
	// correctly from disk.
	if err := c2.Attach(id); err != nil {
		t.Fatalf("acked session lost across SIGKILL: %v", err)
	}
	got2, err := c2.Infer(model, serve.DemoInput(8), 0)
	if err != nil {
		t.Fatalf("post-crash inference: %v", err)
	}
	if !int64sEqual(got2, model.ForwardInt(serve.DemoInput(8)).Data) {
		t.Fatal("post-crash inference wrong")
	}
	// The torn upload was never acked: its would-be session must not
	// exist under any ID we can derive, and the server must stay healthy.
	c3, err := client.Dial(addr2, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Attach(tornID); err == nil {
		t.Fatal("torn upload visible after restart")
	}
	if _, err := os.Stat(filepath.Join(dir, tornID+".tmp-123")); !os.IsNotExist(err) {
		t.Fatalf("torn upload's temp file survived the restart: %v", err)
	}
	snap, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Store == nil {
		t.Fatal("restarted server runs without the durable tier")
	}
	if snap.Store.Entries != 1 {
		t.Fatalf("store holds %d entries after recovery, want exactly the acked session", snap.Store.Entries)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func startServeProc(t *testing.T, bin, addr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dir, "-max-wait", "5ms")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return cmd
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
	return nil
}

// TestRottedBundleHeals: one flipped byte in a stored bundle is caught
// before any decoder sees it, the file is set aside, the attach answers
// SESSION_NOT_FOUND, the reliable client re-uploads once and the fresh
// copy serves — now and after another restart, where the quarantined
// file is counted and never read.
func TestRottedBundleHeals(t *testing.T) {
	eng := itEngine(t)
	model := serve.DemoNet()
	dir := t.TempDir()

	srv1, addr1 := startServer(t, serve.Config{MaxWait: 5 * time.Millisecond, DataDir: dir})
	c1, err := client.Dial(addr1, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	srv1.Shutdown()

	object := filepath.Join(dir, id)
	good, err := os.ReadFile(object)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), good...)
	rotted[len(rotted)/2] ^= 0x01
	if err := os.WriteFile(object, rotted, 0o600); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startServer(t, serve.Config{MaxWait: 5 * time.Millisecond, DataDir: dir})
	rc, err := client.DialReliable(addr2, eng, client.ReliableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Attach(id); err != nil {
		t.Fatalf("attach over a rotted bundle: %v", err)
	}
	if _, _, _, reuploads := rc.Counters(); reuploads != 1 {
		t.Fatalf("%d re-uploads, want exactly 1", reuploads)
	}
	x := serve.DemoInput(44)
	got, err := rc.Infer(model, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !int64sEqual(got, model.ForwardInt(x).Data) {
		t.Fatal("inference on the healed session wrong")
	}
	snap := srv2.Metrics()
	if snap.Store == nil || snap.Store.Quarantined != 1 || snap.Store.Entries != 1 || snap.Store.Puts != 1 {
		t.Fatalf("store after healing: %+v", snap.Store)
	}
	if snap.Sessions.ColdLoads != 0 {
		t.Fatalf("cold_loads=%d: the rotted bundle was served", snap.Sessions.ColdLoads)
	}
	if set, err := os.ReadFile(object + ".corrupt"); err != nil || !bytes.Equal(set, rotted) {
		t.Fatalf("rotted bytes not kept as %s.corrupt: %v", id, err)
	}
	if healed, err := os.ReadFile(object); err != nil || !bytes.Equal(healed, good) {
		t.Fatalf("healed object does not hold the uploaded bytes: %v", err)
	}
	rc.Close()
	srv2.Shutdown()

	srv3, addr3 := startServer(t, serve.Config{MaxWait: 5 * time.Millisecond, DataDir: dir})
	if rec := srv3.Recovery(); rec.Entries != 1 || rec.Quarantined != 1 || rec.PartialRemoved != 0 {
		t.Fatalf("recovery after healing: %+v", rec)
	}
	c3, err := client.Dial(addr3, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Attach(id); err != nil {
		t.Fatalf("attach to the healed session after restart: %v", err)
	}
	if err := c3.Attach(id + ".corrupt"); err == nil {
		t.Fatal("the quarantined file attached")
	}
	if snap := srv3.Metrics(); snap.Sessions.ColdLoads != 1 {
		t.Fatalf("cold_loads=%d want 1", snap.Sessions.ColdLoads)
	}
}
