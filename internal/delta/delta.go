// Package delta computes view deltas: given one freshly appended base
// edge, which contracted edges must be inserted into each maintained
// k-hop connector view. This is the differential half of the
// delta-overlay storage layer (internal/graph/delta.go) — the overlay
// keeps the base snapshot current without refreezing, and this package
// keeps the materialized views current without re-walking their
// sources, in the spirit of Graphsurge's analytics over collections of
// related views (PAPERS.md).
//
// The delta for a new edge e and hop count k is the set of k-length
// paths that use e: for each split position i, backward i-length
// prefixes into e.From combined with forward (k-1-i)-length suffixes
// out of e.To, edge-unique across prefix+e+suffix. Because the k-hop
// views for k=1..maxK form a chain, one pair of bounded DFS walks
// (prefixes to depth maxK-1, suffixes likewise) serves every k: the
// per-k deltas are assembled from the shared frontier by length, so
// maintaining the whole chain costs one walk, not maxK.
//
// Emission order per k is exactly the order the per-edge nested walk in
// views.MaintainedConnector historically produced (split position, then
// prefix DFS order, then suffix DFS order) — the maintenance
// equivalence suites pin view fingerprints byte-identical to
// rematerialization, so the order is part of the contract.
package delta

import "kaskade/internal/graph"

// Edge is one view-delta record: a contracted k-hop edge to insert,
// with base-graph endpoint IDs and the aggregated path timestamp.
type Edge struct {
	From graph.VertexID
	To   graph.VertexID
	K    int
	TS   int64
}

// Config describes the maintained k-hop connector family sharing one
// delta computation: endpoint type constraints, the edge-type filter
// (empty: all types), and which hop counts to emit.
type Config struct {
	SrcType   string
	DstType   string
	EdgeTypes []string
	Ks        []int
}

// path is one collected prefix or suffix: the far endpoint, the edges
// walked (empty for the trivial length-0 path), and the max "ts" over
// those edges (meaningless when empty).
type path struct {
	end   graph.VertexID
	edges []graph.EdgeID
	ts    int64
}

// EdgeDeltas computes, for the freshly appended base edge eid, the new
// contracted edges of every k-hop view named in cfg.Ks, keyed by k.
// Each slice is in maintenance order (see the package comment). An edge
// whose type the filter rejects yields empty deltas for every k.
func EdgeDeltas(g *graph.Graph, eid graph.EdgeID, cfg Config) map[int][]Edge {
	out := make(map[int][]Edge, len(cfg.Ks))
	maxK := 0
	for _, k := range cfg.Ks {
		out[k] = nil
		if k > maxK {
			maxK = k
		}
	}
	f := g.Freeze()
	allow := typeFilter(cfg.EdgeTypes)
	if maxK == 0 || !allow(f.EdgeTypeOf(eid)) {
		return out
	}
	ts := g.EdgeProperty("ts")
	prefixes := collect(f, ts, f.From(eid), true, maxK-1, eid, allow)
	suffixes := collect(f, ts, f.To(eid), false, maxK-1, eid, allow)
	baseTS := tsOf(ts, eid)
	for _, k := range cfg.Ks {
		for i := 0; i <= k-1; i++ {
			for _, p := range prefixes[i] {
				if cfg.SrcType != "" && g.Vertex(p.end).Type != cfg.SrcType {
					continue
				}
				for _, s := range suffixes[k-1-i] {
					if cfg.DstType != "" && g.Vertex(s.end).Type != cfg.DstType {
						continue
					}
					if !disjoint(p.edges, s.edges) {
						continue
					}
					ts := baseTS
					if len(p.edges) > 0 {
						ts = maxInt64(ts, p.ts)
					}
					if len(s.edges) > 0 {
						ts = maxInt64(ts, s.ts)
					}
					out[k] = append(out[k], Edge{From: p.end, To: s.end, K: k, TS: ts})
				}
			}
		}
	}
	return out
}

// collect gathers every edge-unique path of length 0..maxLen out of
// start — backward over in-edges (back=true, for prefixes into the new
// edge's source) or forward over out-edges (suffixes from its target) —
// grouped by length, each group in DFS preorder. Preorder restricted to
// one depth is exactly the order a depth-limited DFS emits its leaves,
// which is what makes the assembled per-k deltas match the historical
// nested walk. It reads the graph's snapshot f, whose overlay holds the
// new edge.
func collect(f *graph.Frozen, ts graph.EdgeProperty, start graph.VertexID, back bool, maxLen int, skip graph.EdgeID, allow func(string) bool) [][]path {
	byLen := make([][]path, maxLen+1)
	byLen[0] = []path{{end: start}}
	if maxLen == 0 {
		return byLen
	}
	used := map[graph.EdgeID]bool{skip: true}
	stack := make([]graph.EdgeID, 0, maxLen)
	var walk func(at graph.VertexID, atTS int64)
	walk = func(at graph.VertexID, atTS int64) {
		if len(stack) == maxLen {
			return
		}
		row := f.Out(at)
		if back {
			row = f.In(at)
		}
		for _, eid := range row {
			if used[eid] || !allow(f.EdgeTypeOf(eid)) {
				continue
			}
			nts := tsOf(ts, eid)
			if len(stack) > 0 {
				nts = maxInt64(nts, atTS)
			}
			used[eid] = true
			stack = append(stack, eid)
			next := f.To(eid)
			if back {
				next = f.From(eid)
			}
			byLen[len(stack)] = append(byLen[len(stack)], path{
				end: next, edges: append([]graph.EdgeID(nil), stack...), ts: nts,
			})
			walk(next, nts)
			stack = stack[:len(stack)-1]
			used[eid] = false
		}
	}
	walk(start, 0)
	return byLen
}

// disjoint reports whether the two edge lists share no edge. Paths are
// at most maxK-1 edges long, so the nested scan beats any set.
func disjoint(a, b []graph.EdgeID) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}

// typeFilter returns the allow predicate for an edge-type list (empty:
// everything passes) — the same semantics as the connector's filter.
func typeFilter(types []string) func(string) bool {
	if len(types) == 0 {
		return func(string) bool { return true }
	}
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(t string) bool { return set[t] }
}

// tsOf reads an edge's int64 "ts" property (0 when absent), the
// timestamp connectors aggregate during contraction, from the handle
// EdgeDeltas resolves once per call.
func tsOf(ts graph.EdgeProperty, e graph.EdgeID) int64 {
	v, _ := ts.Int(e)
	return v
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
