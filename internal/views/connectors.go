package views

import (
	"fmt"
	"runtime"

	"kaskade/internal/graph"
	"kaskade/internal/par"
)

// KHopConnector contracts every k-length (edge-unique) path between a
// vertex of SrcType and a vertex of DstType into a single edge (Table I,
// "k-hop connector"; Fig. 3's running example is the job-to-job K=2
// instance). An empty SrcType/DstType matches any vertex type
// (vertex-to-vertex connectors on homogeneous graphs).
type KHopConnector struct {
	SrcType string
	DstType string
	K       int
	// EdgeTypes restricts which edge types paths may traverse (nil = any).
	EdgeTypes []string
	// DedupPairs collapses parallel connector edges (one edge per
	// reachable pair instead of one per path).
	DedupPairs bool
}

var _ EstimatableView = KHopConnector{}

// Name returns the connector's identifier, which doubles as the
// contracted edge's type, e.g. CONN_2HOP_Job_Job.
func (c KHopConnector) Name() string {
	st, dt := c.SrcType, c.DstType
	if st == "" {
		st = "ANY"
	}
	if dt == "" {
		dt = "ANY"
	}
	return fmt.Sprintf("CONN_%dHOP_%s_%s", c.K, st, dt)
}

// Kind reports connector.
func (c KHopConnector) Kind() Kind { return KindConnector }

// PathLength returns k.
func (c KHopConnector) PathLength() int { return c.K }

// Describe returns a Table I style description.
func (c KHopConnector) Describe() string {
	return fmt.Sprintf("%d-hop connector %s->%s (one edge per contracted %d-length path)",
		c.K, orAny(c.SrcType), orAny(c.DstType), c.K)
}

// Cypher renders the defining pattern — the canonical DDL body where
// the connector is DDL-expressible (it compiles back to this view), the
// plain contraction pattern otherwise.
func (c KHopConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x%s)-[p*%d..%d]->(y%s) RETURN x, y",
		colonType(c.SrcType), c.K, c.K, colonType(c.DstType))
}

// Materialize builds the connector view graph: all vertices of the
// endpoint types (every vertex when either endpoint is untyped) plus
// one contracted edge per k-length path. The contracted edge
// aggregates path properties: ts = max constituent ts (so per-path
// max-timestamp queries keep working), hops = k.
func (c KHopConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return Materialize(c, g, 1)
}

func (c KHopConnector) contraction(g *graph.Graph) (*contraction, error) {
	if c.K < 1 {
		return nil, fmt.Errorf("views: k-hop connector needs K >= 1, got %d", c.K)
	}
	if err := validateTypes(g, c.SrcType, c.DstType); err != nil {
		return nil, err
	}
	schema, err := connectorSchema(g, c.SrcType, c.DstType, c.Name())
	if err != nil {
		return nil, err
	}
	f := g.Freeze()
	ct := &contraction{
		f: f, sources: sourceIDs(g, c.SrcType), minLen: c.K, maxLen: c.K,
		ends: typeIs(f, c.DstType), schema: schema, name: c.Name(), dedupPairs: c.DedupPairs,
	}
	if c.SrcType != "" && c.DstType != "" {
		ct.keep = []string{c.SrcType, c.DstType}
	}
	switch len(c.EdgeTypes) {
	case 0:
	case 1:
		ct.single = c.EdgeTypes[0]
	default:
		ct.allow = edgeTypeFilter(c.EdgeTypes)
	}
	return ct, nil
}

// SameVertexTypeConnector contracts directed paths (up to MaxLen hops)
// whose endpoints are both of VType and whose intermediate vertices are
// not (Table I, "same-vertex-type connector"): e.g. author-paper-author
// becomes author-author regardless of intermediate hops.
type SameVertexTypeConnector struct {
	VType      string
	MaxLen     int // cap on contracted path length; required (>0)
	DedupPairs bool
}

var _ View = SameVertexTypeConnector{}

// Name returns e.g. CONN_SAMEVT_4_Author.
func (c SameVertexTypeConnector) Name() string {
	return fmt.Sprintf("CONN_SAMEVT_%d_%s", c.MaxLen, c.VType)
}

// Kind reports connector.
func (c SameVertexTypeConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SameVertexTypeConnector) Describe() string {
	return fmt.Sprintf("same-vertex-type connector over %s (paths up to %d hops, no intermediate %s)",
		c.VType, c.MaxLen, c.VType)
}

// Cypher renders display text only: no DDL pattern says "no
// intermediate VType", so the class is built through the struct API.
func (c SameVertexTypeConnector) Cypher() string {
	return fmt.Sprintf("MATCH (x:%s)-[p*1..%d]->(y:%s) RETURN x, y -- no intermediate %s", c.VType, c.MaxLen, c.VType, c.VType)
}

// Materialize contracts each qualifying path into one edge.
func (c SameVertexTypeConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return Materialize(c, g, 1)
}

func (c SameVertexTypeConnector) contraction(g *graph.Graph) (*contraction, error) {
	if c.VType == "" || c.MaxLen < 1 {
		return nil, fmt.Errorf("views: same-vertex-type connector needs a type and MaxLen >= 1")
	}
	if err := validateTypes(g, c.VType); err != nil {
		return nil, err
	}
	schema, err := connectorSchema(g, c.VType, c.VType, c.Name())
	if err != nil {
		return nil, err
	}
	// The path ends at the first same-type vertex.
	f := g.Freeze()
	return &contraction{
		f: f, sources: g.VerticesOfType(c.VType), minLen: 1, maxLen: c.MaxLen,
		ends: typeIs(f, c.VType), stopAtEnd: true, keep: []string{c.VType},
		schema: schema, name: c.Name(), dedupPairs: c.DedupPairs,
	}, nil
}

// SameEdgeTypeConnector contracts maximal directed paths made of a single
// edge type into one edge (Table I, "same-edge-type connector"), e.g.
// chains of task TRANSFERS_TO edges.
type SameEdgeTypeConnector struct {
	EType      string
	MaxLen     int
	DedupPairs bool
}

var _ View = SameEdgeTypeConnector{}

// Name returns e.g. CONN_SAMEET_3_TRANSFERS_TO.
func (c SameEdgeTypeConnector) Name() string {
	return fmt.Sprintf("CONN_SAMEET_%d_%s", c.MaxLen, c.EType)
}

// Kind reports connector.
func (c SameEdgeTypeConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SameEdgeTypeConnector) Describe() string {
	return fmt.Sprintf("same-edge-type connector over %s paths up to %d hops", c.EType, c.MaxLen)
}

// Cypher renders the defining pattern (the canonical DDL body where
// DDL-expressible; see KHopConnector.Cypher).
func (c SameEdgeTypeConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x)-[p:%s*1..%d]->(y) RETURN x, y", c.EType, c.MaxLen)
}

// Materialize contracts each path of EType edges (length 1..MaxLen).
func (c SameEdgeTypeConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return Materialize(c, g, 1)
}

func (c SameEdgeTypeConnector) contraction(g *graph.Graph) (*contraction, error) {
	if c.EType == "" || c.MaxLen < 1 {
		return nil, fmt.Errorf("views: same-edge-type connector needs an edge type and MaxLen >= 1")
	}
	// Every prefix of a chain is itself a contracted path, so the walk
	// keeps extending after each emit.
	return &contraction{
		f: g.Freeze(), sources: sourceIDs(g, ""), single: c.EType, minLen: 1, maxLen: c.MaxLen,
		name: c.Name(), dedupPairs: c.DedupPairs,
	}, nil
}

// SourceToSinkConnector contracts paths from source vertices (no
// incoming edges) to sink vertices (no outgoing edges) — Table I's last
// row, useful for end-to-end lineage.
type SourceToSinkConnector struct {
	MaxLen     int
	DedupPairs bool
}

var _ View = SourceToSinkConnector{}

// Name returns e.g. CONN_SRCSINK_4.
func (c SourceToSinkConnector) Name() string { return fmt.Sprintf("CONN_SRCSINK_%d", c.MaxLen) }

// Kind reports connector.
func (c SourceToSinkConnector) Kind() Kind { return KindConnector }

// Describe returns a Table I style description.
func (c SourceToSinkConnector) Describe() string {
	return fmt.Sprintf("source-to-sink connector (paths up to %d hops from in-degree-0 to out-degree-0 vertices)", c.MaxLen)
}

// Cypher renders the defining pattern (the canonical DDL body where
// DDL-expressible; the INDEGREE/OUTDEGREE predicate in the WHERE clause
// is the class marker the view compiler recognizes).
func (c SourceToSinkConnector) Cypher() string {
	if p, err := CanonicalPattern(c); err == nil {
		return p
	}
	return fmt.Sprintf("MATCH (x)-[p*1..%d]->(y) RETURN x, y -- WHERE indeg(x)=0 AND outdeg(y)=0", c.MaxLen)
}

// Materialize contracts each source-to-sink path.
func (c SourceToSinkConnector) Materialize(g *graph.Graph) (*graph.Graph, error) {
	return Materialize(c, g, 1)
}

func (c SourceToSinkConnector) contraction(g *graph.Graph) (*contraction, error) {
	if c.MaxLen < 1 {
		return nil, fmt.Errorf("views: source-to-sink connector needs MaxLen >= 1")
	}
	// Only true sources (in-degree 0, at least one outgoing edge) seed
	// the search; filtering up front keeps the chunk partition balanced
	// over real work.
	f := g.Freeze()
	var sources []graph.VertexID
	for s := 0; s < f.NumVertices(); s++ {
		id := graph.VertexID(s)
		if f.InDegree(id) == 0 && f.OutDegree(id) > 0 {
			sources = append(sources, id)
		}
	}
	return &contraction{
		f: f, sources: sources, minLen: 1, maxLen: c.MaxLen,
		ends: func(v graph.VertexID) bool { return f.OutDegree(v) == 0 }, stopAtEnd: true,
		name: c.Name(), dedupPairs: c.DedupPairs,
	}, nil
}

// contraction is one Table I connector class as data for the shared
// path search: every edge-unique path from a source, over the allowed
// edge types, whose length lies in minLen..maxLen and whose last vertex
// passes ends becomes one view edge carrying ts = max constituent ts
// and hops = path length.
type contraction struct {
	f       *graph.Frozen // the base snapshot the search walks
	sources []graph.VertexID
	// single is the one edge type paths may traverse; allow filters a
	// multi-type set. Both unset: every edge type.
	single         string
	allow          func(string) bool
	minLen, maxLen int
	// ends accepts a path's last vertex (nil = every vertex); with
	// stopAtEnd, an accepted vertex also ends the path.
	ends      func(graph.VertexID) bool
	stopAtEnd bool
	// keep lists the vertex types copied into the view (nil = all).
	keep       []string
	schema     *graph.Schema
	name       string
	dedupPairs bool
}

// contractor is implemented by the four Table I connector classes.
type contractor interface {
	contraction(g *graph.Graph) (*contraction, error)
}

// Materialize builds v's view graph over g. Connectors fan their
// per-source path search out over up to `workers` goroutines (0 or 1 =
// sequential, negative = one per available CPU), byte-identical to the
// sequential build (see materializeBySource); every other class runs
// v.Materialize(g).
func Materialize(v View, g *graph.Graph, workers int) (*graph.Graph, error) {
	c, ok := v.(contractor)
	if !ok {
		return v.Materialize(g)
	}
	ct, err := c.contraction(g)
	if err != nil {
		return nil, err
	}
	out, _, err := ct.build(g, workers)
	return out, err
}

// build materializes the contraction: the kept vertices first, then
// one edge per path in source order. It returns the base-to-view vertex
// mapping alongside the view, for maintainers that extend it later.
func (ct *contraction) build(g *graph.Graph, workers int) (*graph.Graph, []graph.VertexID, error) {
	out := graph.NewGraph(ct.schema)
	remap, err := copyVerticesOfTypes(g, out, ct.keep)
	if err != nil {
		return nil, nil, err
	}
	enumerate := func(s graph.VertexID, used []bool, emit func(connEdge) error) error {
		return ct.paths(s, used, func(at graph.VertexID, ts int64, hops int) error {
			return emit(connEdge{from: remap[s], to: remap[at], ts: ts, hops: int64(hops)})
		})
	}
	if err := materializeBySource(ct.sources, g.NumEdges(), workers, enumerate, pairAdder(out, ct.name, ct.dedupPairs)); err != nil {
		return nil, nil, err
	}
	return out, remap, nil
}

// paths runs the edge-unique DFS from s, calling emit with each
// accepted path's last vertex, max timestamp and length, in DFS
// (= sequential materialization) order. The traversal runs on the
// frozen CSR view: with a single allowed edge type the step reads the
// contiguous typed group (the insertion-order subsequence, so emit
// order is unchanged); otherwise it filters the flat row. used must be
// all-false on entry and is unwound on return, so callers reuse it
// across sources.
func (ct *contraction) paths(s graph.VertexID, used []bool, emit func(at graph.VertexID, ts int64, hops int) error) error {
	f := ct.f
	ts := f.Graph().EdgeProperty("ts")
	var dfs func(at graph.VertexID, hops int, maxTS int64) error
	dfs = func(at graph.VertexID, hops int, maxTS int64) error {
		if hops >= ct.minLen && (ct.ends == nil || ct.ends(at)) {
			if err := emit(at, maxTS, hops); err != nil || ct.stopAtEnd {
				return err
			}
		}
		if hops == ct.maxLen {
			return nil
		}
		edges := f.Out(at)
		if ct.single != "" {
			edges = f.OutOfType(at, ct.single)
		}
		for _, eid := range edges {
			if used[eid] || (ct.allow != nil && !ct.allow(f.EdgeTypeOf(eid))) {
				continue
			}
			used[eid] = true
			err := dfs(f.To(eid), hops+1, maxInt64(maxTS, tsOf(ts, eid)))
			used[eid] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(s, 0, 0)
}

// sourceChunkTarget is the number of source chunks created per worker
// during parallel materialization: enough over-decomposition that fast
// workers steal the tail when hub sources concentrate the path count.
const sourceChunkTarget = 16

// connEdge is one contracted edge found by the per-source path search,
// already in view-graph coordinates, buffered until the ordered merge.
type connEdge struct {
	from, to graph.VertexID
	ts       int64
	hops     int64
}

// pairAdder builds the merge-side edge sink every connector class
// shares: optional pair dedup, then one contracted edge carrying the
// aggregated path properties. Pair dedup lives here — on the single
// goroutine that sees edges in sequential order — because skipping a
// duplicate never changes the path search itself, only whether the
// edge lands.
func pairAdder(out *graph.Graph, name string, dedupPairs bool) func(connEdge) error {
	seenPair := make(map[[2]graph.VertexID]bool)
	return func(e connEdge) error {
		if dedupPairs {
			key := [2]graph.VertexID{e.from, e.to}
			if seenPair[key] {
				return nil
			}
			seenPair[key] = true
		}
		_, err := out.AddEdge(e.from, e.to, name, graph.Properties{
			"ts":   e.ts,
			"hops": e.hops,
		})
		return err
	}
}

// materializeBySource is the execution shape all connector classes
// share: an independent path enumeration per source vertex whose
// emitted edges must land in source order. With workers <= 1 (or a
// single source) it runs inline, handing each emitted edge straight to
// add. Otherwise sources are partitioned into contiguous chunks, each
// worker enumerates its chunk's paths into a buffer (the base graph
// and any remap table are read-only by then), and the calling
// goroutine merges buffers in chunk order — so edge insertion order,
// pair dedup, and therefore the whole view graph are byte-identical to
// the sequential build. Only the merge touches the view graph, so add
// needs no locking.
//
// numEdges sizes the edge-uniqueness set: a dense []bool indexed by
// EdgeID (the DFS unwinds its own marks, so one set serves a worker's
// whole chunk sequence). enumerate must confine its mutation to that
// set — every bit it sets must be cleared again on return — and may
// only fail by propagating emit's error, the contract that makes
// buffered emits infallible.
func materializeBySource(sources []graph.VertexID, numEdges, workers int,
	enumerate func(s graph.VertexID, used []bool, emit func(connEdge) error) error,
	add func(connEdge) error) error {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(sources) < 2 {
		used := make([]bool, numEdges)
		for _, s := range sources {
			if err := enumerate(s, used, add); err != nil {
				return err
			}
		}
		return nil
	}
	chunkSize, numChunks := par.Chunks(len(sources), workers, sourceChunkTarget)
	chunks := make([][]connEdge, numChunks)
	par.Do(numChunks, workers, func(next func() (int, bool)) {
		// One edge-uniqueness set per worker, unwound between sources.
		used := make([]bool, numEdges)
		for {
			ci, ok := next()
			if !ok {
				return
			}
			lo := ci * chunkSize
			hi := min(lo+chunkSize, len(sources))
			var buf []connEdge
			for _, s := range sources[lo:hi] {
				// The buffering emit cannot fail, and enumerate only
				// propagates emit errors.
				_ = enumerate(s, used, func(e connEdge) error {
					buf = append(buf, e)
					return nil
				})
			}
			chunks[ci] = buf
		}
	})
	for _, buf := range chunks {
		for _, e := range buf {
			if err := add(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// CountKHopPaths counts the k-length (edge-unique) directed paths from
// srcType vertices to dstType vertices ("" = any) without materializing
// the connector — the "actual" series of Fig. 5 at sizes where building
// the parallel-edge view graph would be wasteful. By §V-A this count
// equals the edge count of the corresponding k-hop connector.
func CountKHopPaths(g *graph.Graph, srcType, dstType string, k int) int64 {
	ct, err := KHopConnector{SrcType: srcType, DstType: dstType, K: k}.contraction(g)
	if err != nil {
		return 0 // k < 1, or a type the schema lacks: no such path
	}
	var count int64
	used := make([]bool, g.NumEdges())
	for _, s := range ct.sources {
		_ = ct.paths(s, used, func(graph.VertexID, int64, int) error {
			count++
			return nil
		})
	}
	return count
}

// --- helpers ---

func orAny(t string) string {
	if t == "" {
		return "ANY"
	}
	return t
}

func colonType(t string) string {
	if t == "" {
		return ""
	}
	return ":" + t
}

// typeIs returns a predicate accepting the vertices of vtype (nil, i.e.
// every vertex, when vtype is "").
func typeIs(f *graph.Frozen, vtype string) func(graph.VertexID) bool {
	if vtype == "" {
		return nil
	}
	return func(v graph.VertexID) bool { return f.VertexTypeOf(v) == vtype }
}

// connectorSchema builds the view graph's schema: the endpoint types plus
// the contracted edge type. Unconstrained graphs stay unconstrained.
// Property declarations for the kept endpoint types carry over, so a
// query rewritten over the view keeps its schema-proved typing.
func connectorSchema(g *graph.Graph, src, dst, edgeName string) (*graph.Schema, error) {
	if g.Schema() == nil || src == "" || dst == "" {
		return nil, nil
	}
	s, err := graph.NewSchema(
		dedupeStrings([]string{src, dst}),
		[]graph.EdgeType{{From: src, To: dst, Name: edgeName}},
	)
	if err != nil {
		return nil, err
	}
	if err := s.AdoptProperties(g.Schema()); err != nil {
		return nil, err
	}
	// The contracted edge's path aggregates live in int64 edge columns.
	for _, prop := range []string{"ts", "hops"} {
		if err := s.DeclareProperty(edgeName, prop, graph.PropInt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// edgeTypeFilter returns a predicate accepting the listed edge types
// (everything when the list is empty).
func edgeTypeFilter(types []string) func(string) bool {
	if len(types) == 0 {
		return func(string) bool { return true }
	}
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return func(t string) bool { return set[t] }
}

// sourceIDs returns the vertices the path search starts from.
func sourceIDs(g *graph.Graph, srcType string) []graph.VertexID {
	if srcType != "" {
		return g.VerticesOfType(srcType)
	}
	ids := make([]graph.VertexID, g.NumVertices())
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	return ids
}
