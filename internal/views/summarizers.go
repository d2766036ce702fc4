package views

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"kaskade/internal/graph"
)

// VertexInclusionSummarizer keeps only vertices of the listed types and
// the edges whose both endpoints survive (Table II, "vertex-inclusion
// summarizer"). This is the schema-level summarizer of the evaluation:
// prov raw -> jobs+files, dblp raw -> authors+papers (§VII-B, Fig. 6).
type VertexInclusionSummarizer struct {
	Types []string
}

var _ TypeFilter = VertexInclusionSummarizer{}

// Name returns e.g. SUMM_KEEPV_File_Job.
func (s VertexInclusionSummarizer) Name() string {
	return "SUMM_KEEPV_" + joinSorted(s.Types)
}

// Kind reports summarizer.
func (s VertexInclusionSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s VertexInclusionSummarizer) Describe() string {
	return fmt.Sprintf("vertex-inclusion summarizer keeping types {%s}", strings.Join(s.Types, ", "))
}

// Cypher renders the defining filter as the canonical DDL body (it
// parses and compiles back to this summarizer; edges survive iff both
// endpoints are kept).
func (s VertexInclusionSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize filters the graph.
func (s VertexInclusionSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	if len(s.Types) == 0 {
		return nil, fmt.Errorf("views: vertex-inclusion summarizer needs at least one type")
	}
	if err := validateTypes(g, s.Types...); err != nil {
		return nil, err
	}
	return filterGraph(g, s)
}

// KeepsVertexType reports whether t is one of Types.
func (s VertexInclusionSummarizer) KeepsVertexType(t string) bool { return slices.Contains(s.Types, t) }

// KeepsEdgeType reports true: an edge survives when both endpoints do.
func (s VertexInclusionSummarizer) KeepsEdgeType(string) bool { return true }

// VertexRemovalSummarizer removes vertices of the listed types together
// with their incident edges (Table II, "vertex-removal summarizer").
type VertexRemovalSummarizer struct {
	Types []string
}

var _ TypeFilter = VertexRemovalSummarizer{}

// Name returns e.g. SUMM_DROPV_Task.
func (s VertexRemovalSummarizer) Name() string { return "SUMM_DROPV_" + joinSorted(s.Types) }

// Kind reports summarizer.
func (s VertexRemovalSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s VertexRemovalSummarizer) Describe() string {
	return fmt.Sprintf("vertex-removal summarizer dropping types {%s}", strings.Join(s.Types, ", "))
}

// Cypher renders the defining filter as the canonical DDL body.
func (s VertexRemovalSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize filters the graph.
func (s VertexRemovalSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	if len(s.Types) == 0 {
		return nil, fmt.Errorf("views: vertex-removal summarizer needs at least one type")
	}
	if err := validateTypes(g, s.Types...); err != nil {
		return nil, err
	}
	return filterGraph(g, s)
}

// KeepsVertexType reports whether t is not one of Types.
func (s VertexRemovalSummarizer) KeepsVertexType(t string) bool { return !slices.Contains(s.Types, t) }

// KeepsEdgeType reports true: an edge survives when both endpoints do.
func (s VertexRemovalSummarizer) KeepsEdgeType(string) bool { return true }

// EdgeInclusionSummarizer keeps only edges of the listed types; all
// vertices survive (Table II, "edge-inclusion summarizer").
type EdgeInclusionSummarizer struct {
	Types []string
}

var _ TypeFilter = EdgeInclusionSummarizer{}

// Name returns e.g. SUMM_KEEPE_WRITES_TO.
func (s EdgeInclusionSummarizer) Name() string { return "SUMM_KEEPE_" + joinSorted(s.Types) }

// Kind reports summarizer.
func (s EdgeInclusionSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s EdgeInclusionSummarizer) Describe() string {
	return fmt.Sprintf("edge-inclusion summarizer keeping edge types {%s}", strings.Join(s.Types, ", "))
}

// Cypher renders the defining filter as the canonical DDL body.
func (s EdgeInclusionSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize filters the graph.
func (s EdgeInclusionSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	if len(s.Types) == 0 {
		return nil, fmt.Errorf("views: edge-inclusion summarizer needs at least one type")
	}
	return filterGraph(g, s)
}

// KeepsVertexType reports true: every vertex survives.
func (s EdgeInclusionSummarizer) KeepsVertexType(string) bool { return true }

// KeepsEdgeType reports whether t is one of Types.
func (s EdgeInclusionSummarizer) KeepsEdgeType(t string) bool { return slices.Contains(s.Types, t) }

// EdgeRemovalSummarizer removes edges of the listed types (Table II,
// "edge-removal summarizer").
type EdgeRemovalSummarizer struct {
	Types []string
}

var _ TypeFilter = EdgeRemovalSummarizer{}

// Name returns e.g. SUMM_DROPE_TRANSFERS_TO.
func (s EdgeRemovalSummarizer) Name() string { return "SUMM_DROPE_" + joinSorted(s.Types) }

// Kind reports summarizer.
func (s EdgeRemovalSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s EdgeRemovalSummarizer) Describe() string {
	return fmt.Sprintf("edge-removal summarizer dropping edge types {%s}", strings.Join(s.Types, ", "))
}

// Cypher renders the defining filter as the canonical DDL body.
func (s EdgeRemovalSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize filters the graph.
func (s EdgeRemovalSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	if len(s.Types) == 0 {
		return nil, fmt.Errorf("views: edge-removal summarizer needs at least one type")
	}
	return filterGraph(g, s)
}

// KeepsVertexType reports true: every vertex survives.
func (s EdgeRemovalSummarizer) KeepsVertexType(string) bool { return true }

// KeepsEdgeType reports whether t is not one of Types.
func (s EdgeRemovalSummarizer) KeepsEdgeType(t string) bool { return !slices.Contains(s.Types, t) }

// AggFunc names a property aggregation function for aggregator
// summarizers.
type AggFunc string

// Supported aggregation functions.
const (
	AggSum   AggFunc = "sum"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	AggCount AggFunc = "count"
	AggAvg   AggFunc = "avg"
)

// VertexAggregatorSummarizer groups vertices of VType by the value of
// GroupBy and combines each group into a supervertex (Table II,
// "vertex-aggregator summarizer"); edges incident to group members are
// re-pointed at the supervertex. Aggs maps property keys to the function
// combining them on the supervertex. Vertices of other types pass
// through. The paper's library restricts aggregation to a single vertex
// type (§VI-B); so does ours.
type VertexAggregatorSummarizer struct {
	VType   string
	GroupBy string
	Aggs    map[string]AggFunc
}

var _ View = VertexAggregatorSummarizer{}

// Name returns e.g. SUMM_AGGV_Job_pipelineName.
func (s VertexAggregatorSummarizer) Name() string {
	return fmt.Sprintf("SUMM_AGGV_%s_%s", s.VType, s.GroupBy)
}

// Kind reports summarizer.
func (s VertexAggregatorSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s VertexAggregatorSummarizer) Describe() string {
	return fmt.Sprintf("vertex-aggregator summarizer grouping %s by %s", s.VType, s.GroupBy)
}

// Cypher renders the defining aggregation as the canonical DDL body
// (one supervertex per group).
func (s VertexAggregatorSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize builds the aggregated graph.
func (s VertexAggregatorSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	if s.VType == "" || s.GroupBy == "" {
		return nil, fmt.Errorf("views: vertex aggregator needs a vertex type and group-by property")
	}
	if err := validateTypes(g, s.VType); err != nil {
		return nil, err
	}
	out := graph.NewGraph(nil)
	remap := make(map[graph.VertexID]graph.VertexID)
	// Pass through other types.
	for i := 0; i < g.NumVertices(); i++ {
		v := g.Vertex(graph.VertexID(i))
		if v.Type == s.VType {
			continue
		}
		nid, err := out.AddVertex(v.Type, v.Props)
		if err != nil {
			return nil, err
		}
		remap[v.ID] = nid
	}
	// Build supervertices per group value, deterministically ordered.
	groups := make(map[string][]graph.VertexID)
	var keys []string
	for _, id := range g.VerticesOfType(s.VType) {
		key := fmt.Sprintf("%v", g.Vertex(id).Prop(s.GroupBy))
		if _, ok := groups[key]; !ok {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], id)
	}
	sort.Strings(keys)
	for _, key := range keys {
		members := groups[key]
		props := graph.Properties{s.GroupBy: key, "members": int64(len(members))}
		for prop, fn := range s.Aggs {
			var vals []int64
			for _, id := range members {
				if v, ok := g.Vertex(id).Prop(prop).(int64); ok {
					vals = append(vals, v)
				}
			}
			agg, err := aggregateInts(fn, vals)
			if err != nil {
				return nil, err
			}
			props[prop] = agg
		}
		super, err := out.AddVertex(s.VType, props)
		if err != nil {
			return nil, err
		}
		for _, id := range members {
			remap[id] = super
		}
	}
	// Re-point edges; intra-group self loops are dropped.
	var err error
	g.EachEdge(func(e *graph.Edge) {
		if err != nil {
			return
		}
		from, to := remap[e.From], remap[e.To]
		if from == to && g.Vertex(e.From).Type == s.VType && g.Vertex(e.To).Type == s.VType && e.From != e.To {
			return // contracted within a group
		}
		_, err = out.AddEdge(from, to, e.Type, e.Props)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EdgeAggregatorSummarizer combines parallel edges (same source, target,
// and type) into a single superedge with aggregated properties (Table II,
// "edge-aggregator summarizer").
type EdgeAggregatorSummarizer struct {
	EType string // edge type to aggregate; "" = all types
	Aggs  map[string]AggFunc
}

var _ View = EdgeAggregatorSummarizer{}

// Name returns e.g. SUMM_AGGE_FOLLOWS.
func (s EdgeAggregatorSummarizer) Name() string {
	t := s.EType
	if t == "" {
		t = "ANY"
	}
	return "SUMM_AGGE_" + t
}

// Kind reports summarizer.
func (s EdgeAggregatorSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s EdgeAggregatorSummarizer) Describe() string {
	return fmt.Sprintf("edge-aggregator summarizer merging parallel %s edges", orAny(s.EType))
}

// Cypher renders the defining aggregation as the canonical DDL body
// (one superedge per (x, y) pair).
func (s EdgeAggregatorSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize merges parallel edges.
func (s EdgeAggregatorSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	out := graph.NewGraph(g.Schema())
	remap, err := copyVerticesOfTypes(g, out, nil)
	if err != nil {
		return nil, err
	}
	type key struct {
		from, to graph.VertexID
		etype    string
	}
	buckets := make(map[key][]*graph.Edge)
	var order []key
	var passthrough []*graph.Edge
	g.EachEdge(func(e *graph.Edge) {
		if s.EType != "" && e.Type != s.EType {
			passthrough = append(passthrough, e)
			return
		}
		k := key{from: e.From, to: e.To, etype: e.Type}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], e)
	})
	for _, e := range passthrough {
		if _, err := out.AddEdge(remap[e.From], remap[e.To], e.Type, e.Props); err != nil {
			return nil, err
		}
	}
	for _, k := range order {
		group := buckets[k]
		props := graph.Properties{"members": int64(len(group))}
		for prop, fn := range s.Aggs {
			var vals []int64
			for _, e := range group {
				if v, ok := e.Prop(prop).(int64); ok {
					vals = append(vals, v)
				}
			}
			agg, err := aggregateInts(fn, vals)
			if err != nil {
				return nil, err
			}
			props[prop] = agg
		}
		if _, err := out.AddEdge(remap[k.from], remap[k.to], k.etype, props); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SubgraphAggregatorSummarizer groups the vertices of VType that share a
// GroupBy value together with edges among them into one supervertex
// (Table II, "subgraph-aggregator summarizer"): it is the vertex
// aggregator plus merging of the group's internal edge mass into an
// "internalEdges" property on the supervertex.
type SubgraphAggregatorSummarizer struct {
	VType   string
	GroupBy string
	Aggs    map[string]AggFunc
}

var _ View = SubgraphAggregatorSummarizer{}

// Name returns e.g. SUMM_AGGSG_Job_community.
func (s SubgraphAggregatorSummarizer) Name() string {
	return fmt.Sprintf("SUMM_AGGSG_%s_%s", s.VType, s.GroupBy)
}

// Kind reports summarizer.
func (s SubgraphAggregatorSummarizer) Kind() Kind { return KindSummarizer }

// Describe returns a Table II style description.
func (s SubgraphAggregatorSummarizer) Describe() string {
	return fmt.Sprintf("subgraph-aggregator summarizer contracting %s groups by %s", s.VType, s.GroupBy)
}

// Cypher renders the defining aggregation as the canonical DDL body
// (one supervertex per group, internal edge mass annotated).
func (s SubgraphAggregatorSummarizer) Cypher() string {
	p, _ := CanonicalPattern(s)
	return p
}

// Materialize contracts each group subgraph into a supervertex.
func (s SubgraphAggregatorSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	va := VertexAggregatorSummarizer{VType: s.VType, GroupBy: s.GroupBy, Aggs: s.Aggs}
	out, err := va.Materialize(g)
	if err != nil {
		return nil, err
	}
	// Count contracted internal edges per supervertex and annotate.
	internal := make(map[graph.VertexID]int64)
	g.EachEdge(func(e *graph.Edge) {
		if g.Vertex(e.From).Type != s.VType || g.Vertex(e.To).Type != s.VType || e.From == e.To {
			return
		}
		kf := fmt.Sprintf("%v", g.Vertex(e.From).Prop(s.GroupBy))
		kt := fmt.Sprintf("%v", g.Vertex(e.To).Prop(s.GroupBy))
		if kf == kt {
			// Find the supervertex by group key.
			for _, id := range out.VerticesOfType(s.VType) {
				if fmt.Sprintf("%v", out.Vertex(id).Prop(s.GroupBy)) == kf {
					internal[id]++
					break
				}
			}
		}
	})
	for id, n := range internal {
		out.Vertex(id).SetProp("internalEdges", n)
	}
	return out, nil
}

// --- shared helpers ---

// filterGraph copies the subgraph of the vertices and edges whose types
// f keeps, an edge only when both endpoints survive. The result keeps
// the original schema (filtering never violates it).
func filterGraph(g *graph.Graph, f TypeFilter) (*graph.Graph, error) {
	out := graph.NewGraph(g.Schema())
	remap := make(map[graph.VertexID]graph.VertexID)
	var err error
	g.EachVertex(func(v *graph.Vertex) {
		if err != nil || !f.KeepsVertexType(v.Type) {
			return
		}
		var nid graph.VertexID
		nid, err = out.AddVertex(v.Type, v.Props)
		if err == nil {
			remap[v.ID] = nid
		}
	})
	if err != nil {
		return nil, err
	}
	g.EachEdge(func(e *graph.Edge) {
		if err != nil {
			return
		}
		from, fok := remap[e.From]
		to, tok := remap[e.To]
		if !fok || !tok || !f.KeepsEdgeType(e.Type) {
			return
		}
		_, err = out.AddEdge(from, to, e.Type, e.Props)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func aggregateInts(fn AggFunc, vals []int64) (any, error) {
	switch fn {
	case AggCount:
		return int64(len(vals)), nil
	case AggSum:
		var s int64
		for _, v := range vals {
			s += v
		}
		return s, nil
	case AggMin:
		if len(vals) == 0 {
			return int64(0), nil
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case AggMax:
		if len(vals) == 0 {
			return int64(0), nil
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case AggAvg:
		if len(vals) == 0 {
			return float64(0), nil
		}
		var s int64
		for _, v := range vals {
			s += v
		}
		return float64(s) / float64(len(vals)), nil
	}
	return nil, fmt.Errorf("views: unknown aggregate function %q", fn)
}

func joinSorted(types []string) string {
	cp := append([]string(nil), types...)
	sort.Strings(cp)
	return strings.Join(cp, "_")
}
