package views

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
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
	out, _, err := s.build(g)
	return out, err
}

// build materializes the view from the rows of its defining aggregate:
// vertices of other types pass through, each group becomes one
// supervertex holding the group value (absent for the null group), its
// COUNT as "members" and its non-null aggregates, and edges are
// re-pointed at the supervertices. An edge between two members of one
// group is contracted; a member's self-loop stays on its supervertex.
// It also returns each group's supervertex by its exec.GroupKey.
func (s VertexAggregatorSummarizer) build(g *graph.Graph) (*graph.Graph, map[string]graph.VertexID, error) {
	if s.VType == "" || s.GroupBy == "" {
		return nil, nil, fmt.Errorf("views: vertex aggregator needs a vertex type and group-by property")
	}
	if err := validateTypes(g, s.VType); err != nil {
		return nil, nil, err
	}
	q, err := definingQuery(s)
	if err != nil {
		return nil, nil, err
	}
	res, err := (&exec.Executor{G: g}).Execute(q)
	if err != nil {
		return nil, nil, err
	}
	out := graph.NewGraph(nil)
	remap := make([]graph.VertexID, g.NumVertices())
	for i := range remap {
		v := g.Vertex(graph.VertexID(i))
		if v.Type == s.VType {
			continue
		}
		if remap[i], err = out.AddVertex(v.Type, v.Props); err != nil {
			return nil, nil, err
		}
	}
	names := propNames(s.Aggs)
	supers := make(map[string]graph.VertexID, len(res.Rows))
	for _, row := range res.Rows {
		key, err := exec.GroupKey(row[0])
		if err != nil {
			return nil, nil, err
		}
		props := groupProps(names, row[1:])
		if row[0] != nil {
			props[s.GroupBy] = row[0]
		}
		if supers[key], err = out.AddVertex(s.VType, props); err != nil {
			return nil, nil, err
		}
	}
	for _, id := range g.VerticesOfType(s.VType) {
		key, err := exec.GroupKey(g.Vertex(id).Prop(s.GroupBy))
		if err != nil {
			return nil, nil, err
		}
		remap[id] = supers[key]
	}
	f, err := g.FreezeChecked()
	if err != nil {
		return nil, nil, err
	}
	for i := range f.NumEdges() {
		eid := graph.EdgeID(i)
		ef, et := f.From(eid), f.To(eid)
		from, to := remap[ef], remap[et]
		if from == to && ef != et {
			continue // contracted within a group
		}
		if _, err := out.AddEdgeFrom(g, eid, from, to); err != nil {
			return nil, nil, err
		}
	}
	return out, supers, nil
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

// Materialize merges parallel edges: every vertex and every edge of
// another type passes through, and each row of the defining aggregate
// becomes one superedge holding its COUNT as "members" and its non-null
// aggregates. Without an EType the aggregate runs once per edge type
// present, in sorted type order, so parallel edges of different types
// stay apart.
func (s EdgeAggregatorSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	q, err := definingQuery(s)
	if err != nil {
		return nil, err
	}
	f, err := g.FreezeChecked()
	if err != nil {
		return nil, err
	}
	types := []string{s.EType}
	if s.EType == "" {
		types = f.EdgeTypes()
	}
	out := graph.NewGraph(g.Schema())
	remap, err := copyVerticesOfTypes(g, out, nil)
	if err != nil {
		return nil, err
	}
	if s.EType != "" {
		other := EdgeTypeMask(f, func(t string) bool { return t != s.EType })
		for i := range f.NumEdges() {
			if e := graph.EdgeID(i); other[f.EdgeTypeIDOf(e)] {
				if _, err := out.AddEdgeFrom(g, e, remap[f.From(e)], remap[f.To(e)]); err != nil {
					return nil, err
				}
			}
		}
	}
	names := propNames(s.Aggs)
	for _, t := range types {
		q.Patterns[0].Edges[0].Type = t
		res, err := (&exec.Executor{G: g}).Execute(q)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			from, to := row[0].(exec.VertexRef).ID, row[1].(exec.VertexRef).ID
			if _, err := out.AddEdge(remap[from], remap[to], t, groupProps(names, row[2:])); err != nil {
				return nil, err
			}
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

// Materialize contracts each group subgraph into a supervertex: the
// vertex aggregator's graph, whose supervertices count in
// "internalEdges" the edges it contracted. Those come from one grouped
// pass over the edges between distinct members with equal group
// values; a row whose two values are different groups (int64 1 and
// float64 1.0 compare equal) is no group's internal mass.
func (s SubgraphAggregatorSummarizer) Materialize(g *graph.Graph) (*graph.Graph, error) {
	out, supers, err := VertexAggregatorSummarizer{VType: s.VType, GroupBy: s.GroupBy, Aggs: s.Aggs}.build(g)
	if err != nil {
		return nil, err
	}
	q, err := gql.Parse(fmt.Sprintf("MATCH (v:%s)-[e]->(w:%s) WHERE v.%s = w.%s AND v <> w RETURN v.%s, w.%s, COUNT(e)",
		s.VType, s.VType, s.GroupBy, s.GroupBy, s.GroupBy, s.GroupBy))
	if err != nil {
		return nil, err
	}
	res, err := (&exec.Executor{G: g}).Execute(q)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		vkey, err := exec.GroupKey(row[0])
		if err != nil {
			return nil, err
		}
		wkey, err := exec.GroupKey(row[1])
		if err != nil {
			return nil, err
		}
		if vkey == wkey {
			if err := out.SetVertexProp(supers[vkey], "internalEdges", row[2]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// definingQuery parses v's defining aggregate and compiles it back,
// which refuses what CREATE VIEW refuses (an unknown aggregate
// function).
func definingQuery(v View) (*gql.MatchQuery, error) {
	q, err := gql.Parse(v.Cypher())
	if err != nil {
		return nil, fmt.Errorf("views: %s: %w", v.Name(), err)
	}
	if _, err := CompilePattern(q); err != nil {
		return nil, err
	}
	return q.(*gql.MatchQuery), nil
}

// groupProps builds a supervertex's or superedge's properties from an
// aggregate row's values: COUNT as "members", then one value per
// aggregated property in names order, leaving nulls out.
func groupProps(names []string, vals []exec.Value) graph.Properties {
	props := graph.Properties{"members": vals[0]}
	for i, name := range names {
		if v := vals[i+1]; v != nil {
			props[name] = v
		}
	}
	return props
}

// --- shared helpers ---

// filterGraph copies the subgraph of the vertices and edges whose types
// f keeps, an edge only when both endpoints survive. The result keeps
// the original schema (filtering never violates it).
func filterGraph(g *graph.Graph, f TypeFilter) (*graph.Graph, error) {
	src, err := g.FreezeChecked()
	if err != nil {
		return nil, err
	}
	out := graph.NewGraph(g.Schema())
	remap := make([]graph.VertexID, g.NumVertices()) // NoVertex: dropped
	for i := range remap {
		v := g.Vertex(graph.VertexID(i))
		remap[i] = graph.NoVertex
		if !f.KeepsVertexType(v.Type) {
			continue
		}
		if remap[i], err = out.AddVertex(v.Type, v.Props); err != nil {
			return nil, err
		}
	}
	keep := EdgeTypeMask(src, f.KeepsEdgeType)
	for i := range src.NumEdges() {
		e := graph.EdgeID(i)
		from, to := remap[src.From(e)], remap[src.To(e)]
		if from == graph.NoVertex || to == graph.NoVertex || !keep[src.EdgeTypeIDOf(e)] {
			continue
		}
		if _, err := out.AddEdgeFrom(g, e, from, to); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EdgeTypeMask returns, indexed by f's interned edge type ID, whether
// keep accepts the type: a per-edge filter then costs one array read
// instead of a string comparison.
func EdgeTypeMask(f *graph.Frozen, keep func(string) bool) []bool {
	types := f.EdgeTypes()
	mask := make([]bool, len(types))
	for _, t := range types {
		id, _ := f.EdgeTypeID(t)
		mask[id] = keep(t)
	}
	return mask
}

func joinSorted(types []string) string {
	cp := append([]string(nil), types...)
	sort.Strings(cp)
	return strings.Join(cp, "_")
}
