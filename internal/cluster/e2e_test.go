package cluster_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"athena/internal/cluster"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

// e2eEnv shares the client engine across cluster tests (keygen is the
// expensive part).
var e2eEnv struct {
	once sync.Once
	eng  *core.Engine
	err  error
}

func e2eEngine(t *testing.T) *core.Engine {
	t.Helper()
	e2eEnv.once.Do(func() {
		e2eEnv.eng, e2eEnv.err = core.NewEngine(core.TestParams())
	})
	if e2eEnv.err != nil {
		t.Fatal(e2eEnv.err)
	}
	return e2eEnv.eng
}

// clusterNode is one in-process athena-serve node plus its admin
// endpoint (the same POST /cluster handler the binary wires up).
type clusterNode struct {
	name  string
	srv   *serve.Server
	addr  string
	admin *httptest.Server
}

// startNode starts a node whose registry holds memCap bytes of keys
// (0 = the server default).
func startNode(t *testing.T, name string, memCap int64) *clusterNode {
	t.Helper()
	demo := serve.DemoNet()
	srv, err := serve.NewServer(serve.Config{
		Params:      core.TestParams(),
		Models:      map[string]*qnn.QNetwork{demo.Name: demo},
		MaxBatch:    16,
		MaxWait:     100 * time.Millisecond,
		MaxQueue:    64,
		DataDir:     t.TempDir(),
		MemCapBytes: memCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)

	admin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		var doc cluster.MembershipDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		srv.SetSessionOwnership(doc.OwnedFunc(name))
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(admin.Close)

	return &clusterNode{name: name, srv: srv, addr: ln.Addr().String(), admin: admin}
}

// TestClusterDrainUnderLoad is the cluster acceptance test: a 3-node
// cluster behind one router serves 16 retrying clients bit-correctly;
// draining the session's owner mid-traffic re-homes the session via
// REDIRECT + SESSION_NOT_FOUND re-upload with ZERO failed requests; and the
// aggregated stats document accounts for every request.
func TestClusterDrainUnderLoad(t *testing.T) {
	eng := e2eEngine(t)
	model := serve.DemoNet()

	nodes := map[string]*clusterNode{}
	members := cluster.NewMembership(0)
	for _, name := range []string{"a", "b", "c"} {
		n := startNode(t, name, 0)
		nodes[name] = n
		adminAddr := strings.TrimPrefix(n.admin.URL, "http://")
		if err := members.Join(name, n.addr, adminAddr); err != nil {
			t.Fatal(err)
		}
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(rln)
	t.Cleanup(router.Shutdown)
	routerAddr := rln.Addr().String()

	ctl := cluster.NewControl(members, router)
	control := httptest.NewServer(ctl.Handler())
	t.Cleanup(control.Close)
	if _, errs := ctl.PushOwnership(); len(errs) > 0 {
		t.Fatalf("seed ownership push: %v", errs)
	}

	// 16 reliable clients through the router; client 0 uploads, the rest
	// attach by content address. Inputs are pre-encrypted serially
	// (encryption consumes the engine's PRNG stream) and requests replay
	// the exact ciphertext on retry.
	const N = 16
	const waves = 3
	clients := make([]*client.Reliable, N)
	for i := range clients {
		rc, err := client.DialReliable(routerAddr, eng, client.ReliableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		clients[i] = rc
	}
	session, err := clients[0].OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < N; i++ {
		if err := clients[i].Attach(session); err != nil {
			t.Fatal(err)
		}
	}
	owner, ok := members.Owner(session)
	if !ok {
		t.Fatal("no owner for session")
	}
	t.Logf("session %s placed on node %s", session, owner.Name)

	type testReq struct {
		in  *core.EncryptedInput
		ref []int64
	}
	reqs := make([][]testReq, waves)
	for w := 0; w < waves; w++ {
		reqs[w] = make([]testReq, N)
		for i := 0; i < N; i++ {
			x := serve.DemoInput(uint64(1000 + w*N + i))
			in, err := eng.EncryptInput(model, x)
			if err != nil {
				t.Fatal(err)
			}
			reqs[w][i] = testReq{in: in, ref: model.ForwardInt(x).Data}
		}
	}

	outs := make([][]*core.EncryptedLogits, waves)
	runWave := func(w int) []error {
		outs[w] = make([]*core.EncryptedLogits, N)
		errs := make([]error, N)
		var wg sync.WaitGroup
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[w][i], errs[i] = clients[i].InferEncrypted(model, reqs[w][i].in, 0)
			}(i)
		}
		wg.Wait()
		return errs
	}
	checkWave := func(w int, errs []error) {
		t.Helper()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("wave %d client %d failed: %v", w, i, err)
			}
		}
		for i := range outs[w] {
			got, err := eng.DecryptLogits(outs[w][i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if d := got[j] - reqs[w][i].ref[j]; d < -3 || d > 3 {
					t.Fatalf("wave %d client %d logit %d: got %d, plaintext %d", w, i, j, got[j], reqs[w][i].ref[j])
				}
			}
		}
	}

	// Wave 0: steady state through the router.
	checkWave(0, runWave(0))

	// Wave 1: drain the owner mid-flight via the JSON-RPC control plane.
	done := make(chan []error, 1)
	go func() { done <- runWave(1) }()
	time.Sleep(20 * time.Millisecond)
	body := `{"jsonrpc":"2.0","id":1,"method":"cluster.drain","params":{"name":"` + owner.Name + `"}}`
	resp, err := http.Post(control.URL+"/rpc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rpcOut struct {
		Error *struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rpcOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rpcOut.Error != nil {
		t.Fatalf("drain RPC: %s", rpcOut.Error.Message)
	}
	checkWave(1, <-done)

	// Wave 2: entirely after the drain — every request must route to the
	// new owner, with zero failures.
	checkWave(2, runWave(2))

	newOwner, ok := members.Owner(session)
	if !ok || newOwner.Name == owner.Name {
		t.Fatalf("session still owned by drained node %s", owner.Name)
	}
	rs := router.Stats()
	if rs.Redirects == 0 {
		t.Fatal("drain produced no REDIRECTs — the re-home path never ran")
	}
	t.Logf("router stats after drain: %+v", rs)

	// Some client performed the SESSION_NOT_FOUND re-upload (the new
	// owner had no copy of the keys).
	var totalReuploads uint64
	for _, rc := range clients {
		_, _, _, reuploads := rc.Counters()
		totalReuploads += reuploads
	}
	if totalReuploads == 0 {
		t.Fatal("no client re-uploaded keys — SESSION_NOT_FOUND path never ran")
	}

	// The aggregated stats document, fetched through the router with the
	// plain single-node client API, accounts for every completed request.
	c, err := client.Dial(routerAddr, eng, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requests.Completed < waves*N {
		t.Fatalf("cluster completed %d requests, want ≥ %d", snap.Requests.Completed, waves*N)
	}
	if snap.MeanBatchSize <= 1 {
		t.Fatalf("mean batch size %.2f through the router: batching never coalesced", snap.MeanBatchSize)
	}

	// The typed cluster section is present in the raw control-plane view.
	mresp, err := http.Get(control.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var cs cluster.ClusterSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Cluster.Nodes) != 3 || cs.Cluster.Router == nil {
		t.Fatalf("cluster metrics document malformed: %d nodes, router=%v", len(cs.Cluster.Nodes), cs.Cluster.Router)
	}
	reachable := 0
	for _, row := range cs.Cluster.Nodes {
		if row.Reachable {
			reachable++
		}
	}
	if reachable != 3 {
		t.Fatalf("%d/3 nodes reachable in metrics", reachable)
	}
}

// TestClusterSessionPlacementSpread: distinct sessions land on
// distinct nodes (the scale-out property — one node would otherwise
// hold every session). Uses raw frame exchanges so no engines are
// needed beyond the shared one.
func TestClusterSessionPlacementSpread(t *testing.T) {
	members := cluster.NewMembership(0)
	for _, name := range []string{"a", "b", "c"} {
		if err := members.Join(name, "127.0.0.1:1", ""); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := serve.SessionID([]byte{byte(i), byte(i >> 4), 0xAB})
		n, ok := members.Owner(id)
		if !ok {
			t.Fatal("no owner")
		}
		seen[n.Name] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 sessions spread over %d of 3 nodes", len(seen))
	}
}

// TestLongLivedRouterReachesEviction: one router, kept for the whole
// test, in front of two nodes whose registries hold about one and a half
// key bundles each. Four sessions take turns through it, each on a fresh
// client connection: the first round uploads, later rounds attach. The
// router holds one connection per node whatever the number of sessions,
// so nothing it keeps pins a session on a node: the nodes evict and
// cold-load under it exactly as without a router. The sessions are the
// first four key seeds whose session IDs give each node two, taken in
// seed order, so the fixture depends on neither the bundle's bytes nor
// the ring's hash.
func TestLongLivedRouterReachesEviction(t *testing.T) {
	model := serve.DemoNet()
	var blob bytes.Buffer
	keys := func(seed uint64) (*core.Engine, string) {
		p := core.TestParams()
		p.Seed = seed
		eng, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		blob.Reset()
		if err := eng.WriteEvalKeys(&blob); err != nil {
			t.Fatal(err)
		}
		return eng, serve.SessionID(blob.Bytes())
	}
	first, firstID := keys(1)
	memCap := int64(blob.Len()) * 3 / 2

	members := cluster.NewMembership(0)
	var nodes []*clusterNode
	for _, name := range []string{"a", "b"} {
		n := startNode(t, name, memCap)
		nodes = append(nodes, n)
		if err := members.Join(name, n.addr, ""); err != nil {
			t.Fatal(err)
		}
	}
	var engines []*core.Engine
	ids := map[*core.Engine]string{}
	perNode := map[string]int{}
	for seed := uint64(1); len(engines) < 4; seed++ {
		if seed > 64 {
			t.Fatalf("placement %v after 64 seeds: want two sessions per node, so each node evicts", perNode)
		}
		eng, id := first, firstID
		if seed > 1 {
			eng, id = keys(seed)
		}
		owner, _ := members.Owner(id)
		if perNode[owner.Name] == 2 {
			continue
		}
		perNode[owner.Name]++
		engines = append(engines, eng)
		ids[eng] = id
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(rln)
	t.Cleanup(router.Shutdown)

	for round := 0; round < 3; round++ {
		for i, eng := range engines {
			c, err := client.Dial(rln.Addr().String(), eng, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				_, err = c.OpenSession()
			} else {
				err = c.Attach(ids[eng])
			}
			if err != nil {
				t.Fatalf("round %d session %d: %v", round, i, err)
			}
			x := serve.DemoInput(uint64(2000 + round*len(engines) + i))
			got, err := c.Infer(model, x, 0)
			c.Close()
			if err != nil {
				t.Fatalf("round %d session %d: %v", round, i, err)
			}
			ref := model.ForwardInt(x).Data
			for j := range got {
				if d := got[j] - ref[j]; d < -3 || d > 3 {
					t.Fatalf("round %d session %d logit %d: got %d, plaintext %d", round, i, j, got[j], ref[j])
				}
			}
		}
	}

	if rs := router.Stats(); rs.BackendDials != 2 {
		t.Fatalf("router dialed %d node connections for 2 nodes: %+v", rs.BackendDials, rs)
	}
	for _, n := range nodes {
		s := n.srv.Metrics().Sessions
		if s.Evictions == 0 || s.ColdLoads == 0 {
			t.Fatalf("node %s: %d evictions, %d cold loads, want both > 0", n.name, s.Evictions, s.ColdLoads)
		}
	}
}
