package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// offline fails every request: ownership pushes to whatever admin
// address a fuzzed join names never leave the process.
type offline struct{}

func (offline) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("fuzz: control plane is offline")
}

// FuzzControlRPC posts arbitrary bodies to the control plane's /rpc
// endpoint, each against a fresh two-node membership. The handler must
// not panic, and it must answer every body with a JSON-RPC 2.0 reply:
// a request that is not valid JSON, lacks "jsonrpc":"2.0", names an
// unknown method or carries params its method cannot decode gets an
// error object, never a result. Only a notification (no id) of a known
// method may get an empty 204. Seed nodes listen nowhere on loopback,
// so cluster.metrics fails fast. The checked-in corpus holds valid
// join/drain/leave/status/metrics calls and malformed ones.
func FuzzControlRPC(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		m := NewMembership(8)
		for _, name := range []string{"a", "b"} {
			if err := m.Join(name, "127.0.0.1:1", ""); err != nil {
				t.Fatal(err)
			}
		}
		ctl := NewControl(m, nil)
		ctl.client = &http.Client{Transport: offline{}}
		ctl.StatsTimeout, ctl.PushTimeout = 100*time.Millisecond, 100*time.Millisecond

		rec := httptest.NewRecorder()
		ctl.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))

		var req rpcRequest
		known := json.Unmarshal(body, &req) == nil && req.JSONRPC == "2.0" &&
			slices.Contains([]string{"cluster.join", "cluster.drain", "cluster.leave", "cluster.rebalance", "cluster.status", "cluster.metrics"}, req.Method)
		if rec.Code == http.StatusNoContent {
			if !known || req.ID != nil {
				t.Fatalf("204 for %q: only a notification of a known method goes unanswered", body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		var resp struct {
			JSONRPC string          `json:"jsonrpc"`
			Result  json.RawMessage `json:"result"`
			Error   *rpcError       `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("reply %q to %q is not JSON: %v", rec.Body.Bytes(), body, err)
		}
		if resp.JSONRPC != "2.0" || (resp.Result == nil) == (resp.Error == nil) {
			t.Fatalf("reply %q to %q: want jsonrpc 2.0 and exactly one of result and error", rec.Body.Bytes(), body)
		}
		if resp.Result == nil {
			return
		}
		if !known {
			t.Fatalf("malformed request %q got result %s", body, resp.Result)
		}
		switch req.Method {
		case "cluster.join", "cluster.drain", "cluster.leave":
			var p struct{ Name string }
			if len(req.Params) == 0 || json.Unmarshal(req.Params, &p) != nil || p.Name == "" {
				t.Fatalf("%s with params %q got result %s", req.Method, req.Params, resp.Result)
			}
		}
	})
}
