package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// ID of the span that caused it (-1 for a root); spans of one operation
// share Op. Times are nanoseconds since the recorder started.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced pass: every method is a no-op, so workloads run the same
// code with tracing on and off.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 from a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// end closes a span, attaching the counter deltas taken at its
// boundaries (nil for none).
func (r *recorder) end(id int, counts map[string]float64) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Counts = counts
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once; a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals folds spans by name: how many, their summed duration and
// their summed self time, in milliseconds.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	SelfMS float64 `json:"self_ms"`
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := map[string]*spanTotal{}
	var order []string
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.SumMS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// durationsMS lists the durations of every span called name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the span list of each workload as one JSON document.
func writeSpans(path string, byWorkload map[string][]span) error {
	blob, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
