package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/serve"
)

// rpc posts one JSON-RPC request body and decodes the response.
func rpc(t *testing.T, url, body string) (result json.RawMessage, rerr *rpcError) {
	t.Helper()
	resp, err := http.Post(url+"/rpc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		JSONRPC string          `json:"jsonrpc"`
		Result  json.RawMessage `json:"result"`
		Error   *rpcError       `json:"error"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("undecodable response %q: %v", raw, err)
	}
	if out.JSONRPC != "2.0" {
		t.Fatalf("response jsonrpc %q, want 2.0", out.JSONRPC)
	}
	return out.Result, out.Error
}

// TestControlMembershipRPC drives join/status/drain/leave through the
// JSON-RPC surface end to end.
func TestControlMembershipRPC(t *testing.T) {
	m := NewMembership(8)
	ctl := NewControl(m, nil)
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":1,"method":"cluster.join","params":{"name":"a","addr":"127.0.0.1:7700"}}`); rerr != nil {
		t.Fatalf("join: %v", rerr)
	}
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":2,"method":"cluster.join","params":{"name":"b","addr":"127.0.0.1:7710"}}`); rerr != nil {
		t.Fatalf("join b: %v", rerr)
	}

	res, rerr := rpc(t, srv.URL, `{"jsonrpc":"2.0","id":3,"method":"cluster.status"}`)
	if rerr != nil {
		t.Fatalf("status: %v", rerr)
	}
	var doc MembershipDoc
	if err := json.Unmarshal(res, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 2 || doc.Epoch != 2 {
		t.Fatalf("status %+v, want 2 nodes at epoch 2", doc)
	}

	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":4,"method":"cluster.drain","params":{"name":"a"}}`); rerr != nil {
		t.Fatalf("drain: %v", rerr)
	}
	if n, _ := m.Node("a"); n.State != NodeDraining {
		t.Fatalf("node a state %v after drain RPC", n.State)
	}
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":5,"method":"cluster.leave","params":{"name":"a"}}`); rerr != nil {
		t.Fatalf("leave: %v", rerr)
	}
	if _, ok := m.Node("a"); ok {
		t.Fatal("node a still present after leave RPC")
	}

	// Error surfaces: unknown node, unknown method, bad params, parse error.
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":6,"method":"cluster.drain","params":{"name":"ghost"}}`); rerr == nil || rerr.Code != rpcInvalidParams {
		t.Fatalf("drain ghost: %v, want invalid params", rerr)
	}
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":7,"method":"cluster.destroy"}`); rerr == nil || rerr.Code != rpcMethodNotFound {
		t.Fatalf("unknown method: %v, want method-not-found", rerr)
	}
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":8,"method":"cluster.join","params":{"name":""}}`); rerr == nil || rerr.Code != rpcInvalidParams {
		t.Fatalf("empty join: %v, want invalid params", rerr)
	}
	if _, rerr := rpc(t, srv.URL, `{"jsonrpc":"2.0",`); rerr == nil || rerr.Code != rpcParseError {
		t.Fatalf("truncated JSON: %v, want parse error", rerr)
	}
	if _, rerr := rpc(t, srv.URL, `{"id":9,"method":"cluster.status"}`); rerr == nil || rerr.Code != rpcInvalidRequest {
		t.Fatalf("missing jsonrpc version: %v, want invalid request", rerr)
	}

	// GET on the RPC endpoint is refused.
	resp, err := http.Get(srv.URL + "/rpc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rpc: %s, want 405", resp.Status)
	}
}

// TestControlOwnershipPush: a membership change POSTs the snapshot to
// every node admin endpoint; nodes without one are skipped.
func TestControlOwnershipPush(t *testing.T) {
	var pushes atomic.Int64
	var last atomic.Value // MembershipDoc
	admin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster" || r.Method != http.MethodPost {
			http.Error(w, "wrong push target", http.StatusBadRequest)
			return
		}
		var doc MembershipDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pushes.Add(1)
		last.Store(doc)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer admin.Close()
	adminAddr := strings.TrimPrefix(admin.URL, "http://")

	m := NewMembership(8)
	ctl := NewControl(m, nil)
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{
		"jsonrpc": "2.0", "id": 1, "method": "cluster.join",
		"params": map[string]string{"name": "a", "addr": "127.0.0.1:7700", "admin": adminAddr},
	})
	res, rerr := rpc(t, srv.URL, string(bytes.TrimSpace(body)))
	if rerr != nil {
		t.Fatalf("join: %v", rerr)
	}
	var ch changeResult
	if err := json.Unmarshal(res, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Pushed != 1 || len(ch.PushErrors) != 0 {
		t.Fatalf("change result %+v, want 1 clean push", ch)
	}
	if pushes.Load() != 1 {
		t.Fatalf("admin endpoint saw %d pushes, want 1", pushes.Load())
	}
	doc := last.Load().(MembershipDoc)
	if len(doc.Nodes) != 1 || doc.Nodes[0].Name != "a" || doc.Epoch != 1 {
		t.Fatalf("pushed doc %+v", doc)
	}

	// join a second node without an admin address: one push again.
	if _, rerr := rpc(t, srv.URL,
		`{"jsonrpc":"2.0","id":2,"method":"cluster.join","params":{"name":"b","addr":"127.0.0.1:7710"}}`); rerr != nil {
		t.Fatalf("join b: %v", rerr)
	}
	if pushes.Load() != 2 {
		t.Fatalf("admin endpoint saw %d pushes, want 2", pushes.Load())
	}
	doc = last.Load().(MembershipDoc)
	if len(doc.Nodes) != 2 || doc.Epoch != 2 {
		t.Fatalf("second pushed doc %+v", doc)
	}

	// rebalance re-pushes without a membership change.
	if _, rerr := rpc(t, srv.URL, `{"jsonrpc":"2.0","id":3,"method":"cluster.rebalance"}`); rerr != nil {
		t.Fatalf("rebalance: %v", rerr)
	}
	if pushes.Load() != 3 {
		t.Fatalf("admin endpoint saw %d pushes after rebalance, want 3", pushes.Load())
	}

	// An unreachable admin endpoint reports a push error, not failure.
	admin.Close()
	res, rerr = rpc(t, srv.URL, `{"jsonrpc":"2.0","id":4,"method":"cluster.rebalance"}`)
	if rerr != nil {
		t.Fatalf("rebalance with dead admin: %v", rerr)
	}
	if err := json.Unmarshal(res, &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.PushErrors) != 1 {
		t.Fatalf("change result %+v, want one push error", ch)
	}
}

// TestControlMetricsAggregation: GET /metrics returns the cluster
// document; unreachable nodes appear with errors instead of failing it.
func TestControlMetricsAggregation(t *testing.T) {
	m := NewMembership(8)
	if err := m.Join("dead", "127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	ctl := NewControl(m, nil)
	ctl.StatsTimeout = 500 * time.Millisecond
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Cluster.Nodes) != 1 {
		t.Fatalf("%d node rows, want 1", len(snap.Cluster.Nodes))
	}
	row := snap.Cluster.Nodes[0]
	if row.Reachable || row.Error == "" {
		t.Fatalf("dead node row %+v, want unreachable with error", row)
	}
	if snap.Cluster.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", snap.Cluster.Epoch)
	}
}

// setCounters gives every numeric field reachable from v a distinct
// non-zero value, in declaration order, allocating pointers and giving
// empty slices two elements.
func setCounters(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setCounters(v.Field(i), next)
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		setCounters(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			setCounters(v.Index(i), next)
		}
	}
}

// TestMetricsDocumentsGolden pins the /metrics and router-aggregate JSON
// byte for byte, with every counter set: the node document as marshalled,
// and the cluster document after adding two nodes through Snapshot.Add
// (a counter that Add forgets shows there undoubled).
func TestMetricsDocumentsGolden(t *testing.T) {
	var node serve.Snapshot
	n := 0
	setCounters(reflect.ValueOf(&node).Elem(), &n)
	if node.Ops.LWEAdds == 0 || node.Store == nil || node.Store.RecoveredEntries == 0 {
		t.Fatalf("setCounters left counters unset: %+v", node)
	}

	var cs ClusterSnapshot
	cs.Snapshot.Add(&node)
	cs.Snapshot.Add(&node)
	if cs.Ops.FBSCalls != 2*node.Ops.FBSCalls {
		t.Fatalf("merged fbs_calls %d, want %d", cs.Ops.FBSCalls, 2*node.Ops.FBSCalls)
	}
	cs.Cluster.Epoch = 7
	cs.Cluster.Nodes = []NodeStatus{
		{Node: Node{Name: "n0", Addr: "127.0.0.1:7700", State: NodeDraining}, Reachable: true, Snapshot: &node},
		{Node: Node{Name: "n1", Addr: "127.0.0.1:7701"}, Error: "dial refused"},
	}
	cs.Cluster.Router = &RouterStats{}
	n = 49 // the router block keeps its values however many counters precede it
	setCounters(reflect.ValueOf(cs.Cluster.Router).Elem(), &n)

	for _, doc := range []struct {
		golden string
		v      any
	}{
		{"snapshot.golden.json", node},
		{"cluster_snapshot.golden.json", cs},
	} {
		got, err := json.Marshal(doc.v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", doc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed:\n got %s\nwant %s", doc.golden, got, want)
		}
	}
}
