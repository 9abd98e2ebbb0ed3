package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"athena/internal/serve"
)

// NodeStatus is one node's row in the cluster metrics document.
type NodeStatus struct {
	Node
	Reachable bool            `json:"reachable"`
	Error     string          `json:"error,omitempty"`
	Snapshot  *serve.Snapshot `json:"snapshot,omitempty"`
}

// ClusterSnapshot is the aggregated cluster metrics document. The
// embedded serve.Snapshot holds the cluster-wide sums in exactly the
// single-node JSON shape, so anything that parses a node's /metrics —
// including the Go client's Stats call through the router — parses the
// cluster's unchanged. Per-node detail and the router's own counters
// ride alongside under "cluster".
type ClusterSnapshot struct {
	serve.Snapshot
	Cluster struct {
		Epoch  uint64       `json:"epoch"`
		Nodes  []NodeStatus `json:"nodes"`
		Router *RouterStats `json:"router,omitempty"`
	} `json:"cluster"`
}

// GatherClusterStats queries every member node over ASV1 for its
// metrics snapshot and sums them. Unreachable nodes appear with their
// error instead of failing the whole document. rs, when non-nil, is
// included as the router counter block.
func GatherClusterStats(m *Membership, rs *RouterStats, timeout time.Duration) ClusterSnapshot {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var out ClusterSnapshot
	nodes, epoch := m.Snapshot()
	out.Cluster.Epoch = epoch
	out.Cluster.Router = rs

	type res struct {
		i    int
		snap *serve.Snapshot
		err  error
	}
	ch := make(chan res, len(nodes))
	for i, n := range nodes {
		go func(i int, n Node) {
			snap, err := fetchNodeSnapshot(n.Addr, timeout)
			ch <- res{i: i, snap: snap, err: err}
		}(i, n)
	}
	rows := make([]NodeStatus, len(nodes))
	for range nodes {
		r := <-ch
		st := NodeStatus{Node: nodes[r.i]}
		if r.err != nil {
			st.Error = r.err.Error()
		} else {
			st.Reachable = true
			st.Snapshot = r.snap
			out.Snapshot.Add(r.snap)
		}
		rows[r.i] = st
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	out.Cluster.Nodes = rows
	return out
}

// fetchNodeSnapshot performs one ASV1 stats round-trip against a node.
func fetchNodeSnapshot(addr string, timeout time.Duration) (*serve.Snapshot, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := serve.WriteFrame(conn, serve.FrameStats, nil); err != nil {
		return nil, err
	}
	typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	if typ != serve.FrameStatsReply {
		return nil, fmt.Errorf("cluster: unexpected frame %d to stats request", typ)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("cluster: undecodable stats reply: %w", err)
	}
	return &snap, nil
}

// aggregateStatsJSON is the router's FrameStats answer: the aggregated
// cluster document as JSON.
func (r *Router) aggregateStatsJSON() ([]byte, error) {
	rs := r.Stats()
	snap := GatherClusterStats(r.cfg.Members, &rs, r.cfg.CtrlTimeout)
	return json.Marshal(snap)
}
