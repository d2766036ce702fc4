package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one op share Op; Parent is the index
// of the span that caused this one (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names an op's root span; its self time is op time no layer
// span covers.
const rootSpan = "op"

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use: service_http records from client and handler goroutines.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, which end and child spans
// take.
func (t *tracer) begin(op int64, parent int32, name string) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the recorded spans (call after the run).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfStat is one span name's totals over a run.
type selfStat struct {
	count  int64
	total  int64 // ns inside spans of this name
	selfNS int64 // total minus the part child spans cover
}

// selfTimes computes, per span name, how much time was spent in spans of
// that name and outside their children: a span's self time is its
// duration minus the durations of the spans it is the parent of.
func selfTimes(spans []span) map[string]*selfStat {
	childNS := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*selfStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &selfStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.selfNS += d - childNS[i]
	}
	return out
}

// layerOf maps a span name to its layer: the Go package the call went
// into, which is the name's prefix up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerShares reports each layer's self time as a share of all op time
// (the sum of root spans).
func layerShares(stats map[string]*selfStat) map[string]float64 {
	root := stats[rootSpan]
	if root == nil || root.total == 0 {
		return map[string]float64{}
	}
	out := map[string]float64{}
	for name, st := range stats {
		out[layerOf(name)] += float64(st.selfNS) / float64(root.total)
	}
	return out
}

// meanUS is the mean duration of one span name in microseconds (0 when
// the run recorded none).
func meanUS(stats map[string]*selfStat, name string) float64 {
	st := stats[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return us(st.total) / float64(st.count)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
