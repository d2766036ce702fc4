// Package kaskade is a from-scratch Go implementation of KASKADE
// ("Kaskade: Graph Views for Efficient Graph Analytics", da Trindade et
// al., ICDE 2020): a graph query optimization framework that mines
// structural constraints from graph schemas and query workloads, derives
// materialized graph views (connectors and summarizers) from each query's
// schema typing, selects the most beneficial views under a
// space budget with a cost model and a 0/1 knapsack, and rewrites
// incoming queries over the materialized views.
//
// Quick start:
//
//	schema := kaskade.MustSchema(
//		[]string{"Job", "File"},
//		[]kaskade.EdgeType{
//			{From: "Job", To: "File", Name: "WRITES_TO"},
//			{From: "File", To: "Job", Name: "IS_READ_BY"},
//		})
//	g := kaskade.NewGraph(schema)
//	// ... load vertices and edges ...
//	sys := kaskade.New(g)
//	sel, _ := sys.SelectViews([]string{blastRadiusQuery}, 1_000_000)
//	_ = sys.AdoptSelection(sel)
//	res, _ := sys.Query(blastRadiusQuery) // runs over the 2-hop connector
//
// The packages under internal/ implement every substrate the paper
// depends on: a property-graph engine (for Neo4j), a hybrid Cypher+SQL
// language and executor, the §V-A cost model, a branch-and-bound
// knapsack (for OR-Tools), synthetic dataset generators standing in for
// the evaluation's graphs, and the full benchmark harness that
// regenerates every table and figure of the paper. View enumeration
// needs no logic engine (for SWI-Prolog): it proposes the views the
// rewrite rules prove, read off the same schema typing.
//
// # Query API
//
// The query surface is modeled on database/sql. For a repeated
// workload — Kaskade's whole reason to exist — Prepare parses and
// view-rewrites once, and every execution after that skips straight to
// the match:
//
//	stmt, _ := sys.Prepare(blastRadiusQuery)
//	for range requests {
//		res, _ := stmt.ExecContext(ctx) // no parse, no rewrite
//		...
//	}
//
// A prepared plan tracks the catalog: AdoptSelection, MaterializeView,
// and DropView bump an internal epoch, and the statement transparently
// re-rewrites on its next execution, so long-lived statements follow
// the view set — including away from a view that was dropped.
//
// Every execution path takes a context.Context (QueryContext,
// QueryRows, ExecContext): cancel it — or let its deadline pass — and
// a pathological pattern match stops promptly, worker pool included.
//
// Results stream. QueryRows and PreparedQuery.QueryContext return a
// Rows cursor (Next/Scan/Err/Close, plus an iter.Seq2 adapter in All)
// that yields rows incrementally instead of buffering the table, in
// exactly the order the buffered API returns them:
//
//	rows, _ := sys.QueryRows(ctx, q)
//	defer rows.Close()
//	for rows.Next() {
//		var p string; var n int64
//		_ = rows.Scan(&p, &n)
//	}
//
// Per-query functional options override the System defaults:
// WithWorkers (match parallelism), WithMaxRows (row guard),
// WithoutViews (baseline execution — what QueryRaw does).
//
// # Declarative view DDL
//
// Views are defined in the query language itself — the paper's Table
// I/II templates are graph patterns, so CREATE VIEW takes one as its
// body. System.Exec executes DDL (and plain queries) through one
// dispatcher:
//
//	_, _ = sys.Exec(ctx, `CREATE MATERIALIZED VIEW jj AS
//	    MATCH (x:Job)-[p*2..2]->(y:Job) RETURN x, y`)
//	res, _ := sys.Exec(ctx, `SHOW VIEWS`) // name, kind, sizes, rewrite hits, DDL
//	_, _ = sys.Exec(ctx, `DROP VIEW jj`)
//
// The view compiler recognizes which Table I/II class a pattern
// denotes — k-hop ((x:S)-[p*k..k]->(y:T)), same-vertex-type
// ((x:T)-[p*1..n]->(y:T)), same-edge-type ((x)-[p:E*1..n]->(y)),
// source-to-sink ((x)-[p*1..n]->(y) WHERE INDEGREE(x) = 0 AND
// OUTDEGREE(y) = 0), label/type inclusion and removal filters, and the
// vertex/edge/subgraph aggregators — and errors descriptively on
// anything else. Every view is materialized on creation (MATERIALIZED
// is optional); CREATE bumps the catalog epoch so prepared statements
// transparently re-rewrite over the new view, and DROP VIEW re-rewrites
// them away from it. The query-only paths (Query*, Prepare) reject DDL
// with an error wrapping ErrDDL. ViewInventory lists every class with
// an example CREATE statement; the struct-based view constructors below
// remain the programmatic escape hatch for options the DDL cannot
// express (multi-edge-type k-hop filters, DedupPairs).
//
// # Frozen CSR storage
//
// A graph stores each edge once, as flat arrays of endpoints and
// interned types indexed by edge ID. Execution runs on an immutable,
// cache-friendly adjacency index over them: a graph's Freeze method
// derives a Frozen view with flat CSR adjacency arrays and per-vertex
// edges grouped by edge type (a typed traversal step reads one
// contiguous pre-filtered slice). Freezing happens automatically —
// New freezes the base graph, LoadGraph freezes what it loads, and
// every view landed in the catalog is frozen before it becomes
// visible — and is memoized, so it costs one O(V+E) build per graph.
// The frozen view preserves every iteration order of the graph it was
// built from; Explain reports the storage line of the plan's graph. A
// mutation after freezing lands in a delta tail merged behind the same
// accessors, and compaction folds the tail into a fresh base. Mutation
// must not run concurrently with queries.
//
// # Parallel execution
//
// Query execution and view materialization run on worker pools when
// System.Parallelism is set (0 or 1 = one worker, N>1 = N workers,
// negative = one per available CPU):
//
//	sys := kaskade.New(g)
//	sys.Parallelism = -1 // use every CPU
//
// The pattern matcher partitions the binding space of a query's first
// node across workers and merges partition results in partition order,
// so parallel execution is deterministic: results — row order, group
// order, float bits — are byte-identical to one worker walking every
// candidate inline, which is the semantic reference. Pure projections
// stream each partition's row prefix eagerly (low time-to-first-row at
// any worker count); aggregates run as per-partition partial accumulators merged
// in partition order. Float SUM and AVG keep an exact running sum and
// round once, so they return the correctly rounded sum whatever the
// row order, worker count, or view rewrite.
// AdoptSelection materializes independent selected views concurrently
// (spare workers fan out inside each connector's per-source path
// search), preserving catalog order. Graphs are read-only once loaded
// and the catalog locks its view set, so a System is safe for
// concurrent use throughout — queries may overlap each other and
// catalog mutation.
//
// # Observability
//
// Every System carries an always-on metrics registry: executions bump
// atomic counters (queries, rows, errors), a lock-free latency
// histogram, per-query-text cumulative stats, and the §V-C rewrite
// hit/miss counters. Read it three ways:
//
//	snap := sys.MetricsSnapshot()        // point-in-time copy of everything
//	top := sys.Metrics().TopQueries(5)   // hottest query texts by total time
//	out, _ := sys.ExplainAnalyze(ctx, q) // plan + per-stage actuals for one run
//
// MetricsSnapshot is lock-free with respect to query execution, so a
// monitoring loop never stalls queries; consecutive snapshots subtract
// cleanly into interval rates and windowed latency quantiles
// (Hist.Sub/Quantile), which is how the `kaskade -cmd top` dashboard
// derives its time series. EXPLAIN and Explain plan without executing
// and move no counter; EXPLAIN ANALYZE (and ExplainAnalyze) execute for
// real. SetMetrics(nil) disables recording entirely — CI's bench guard
// pins the enabled-vs-disabled overhead on the prepared path under 5%.
package kaskade

import (
	"io"

	"kaskade/internal/core"
	"kaskade/internal/cost"
	"kaskade/internal/enum"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
	"kaskade/internal/views"
	"kaskade/internal/workload"
)

// System is a Kaskade instance over one base graph (see core.System).
type System = core.System

// New creates a Kaskade system over a property graph.
func New(g *Graph) *System { return core.New(g) }

// Graph types re-exported from the property-graph engine.
type (
	// Graph is the in-memory property graph Kaskade operates on.
	Graph = graph.Graph
	// Frozen is a graph's immutable CSR view: flat adjacency arrays with
	// per-vertex edges grouped by type, built once by Graph.Freeze and
	// cached. New, AdoptSelection/MaterializeView, and LoadGraph freeze
	// automatically, so queries and traversals run on it by default.
	Frozen = graph.Frozen
	// Schema declares vertex types and the domain/range of edge types,
	// plus optional property kinds (Schema.DeclareProperty), which must
	// precede the first vertex of their type.
	Schema = graph.Schema
	// EdgeType declares one typed edge with its endpoint vertex types.
	EdgeType = graph.EdgeType
	// PropKind is a schema-declared property value type; AddVertex and
	// AddEdge check each declared value and store it in the graph's
	// column for the property.
	PropKind = graph.PropKind
	// Properties is a key-value bag on a vertex or edge.
	Properties = graph.Properties
	// VertexID identifies a vertex within a Graph.
	VertexID = graph.VertexID
	// EdgeID identifies an edge within a Graph.
	EdgeID = graph.EdgeID
)

// Declarable property kinds (see PropKind).
const (
	PropInt    = graph.PropInt
	PropFloat  = graph.PropFloat
	PropString = graph.PropString
	PropBool   = graph.PropBool
)

// NewGraph returns an empty graph governed by schema (nil = unconstrained).
func NewGraph(schema *Schema) *Graph { return graph.NewGraph(schema) }

// NewSchema builds a schema, validating edge type endpoint declarations.
func NewSchema(vertexTypes []string, edgeTypes []EdgeType) (*Schema, error) {
	return graph.NewSchema(vertexTypes, edgeTypes)
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(vertexTypes []string, edgeTypes []EdgeType) *Schema {
	return graph.MustSchema(vertexTypes, edgeTypes)
}

// Result is a buffered query result table.
type Result = exec.Result

// Rows is a streaming query result cursor (database/sql-style:
// Next/Scan/Err/Close, iter.Seq2 via All). Returned by System.QueryRows
// and PreparedQuery.QueryContext; rows arrive incrementally, in the
// exact order the buffered Result would hold them, and Close aborts the
// underlying match.
type Rows = exec.Rows

// Row is one result tuple.
type Row = exec.Row

// Value is a runtime query value: nil, int64, float64, string, bool, or
// a vertex/edge/path reference.
type Value = exec.Value

// ErrRowLimit is returned when a query exceeds MaxRows.
var ErrRowLimit = exec.ErrRowLimit

// ErrDDL is wrapped by the query-only paths (Query*, Prepare, Explain)
// when handed a DDL statement (CREATE VIEW, DROP VIEW, SHOW VIEWS);
// execute those with System.Exec.
var ErrDDL = gql.ErrDDL

// ErrViewExists is wrapped by CREATE VIEW when the name (or an
// identically defined view) is already in the catalog; DROP VIEW first.
var ErrViewExists = workload.ErrViewExists

// ViewDef is a named, declaratively defined view: catalog name,
// canonical CREATE VIEW text, and the compiled View. CREATE VIEW
// produces one; DefineView derives one from a struct-built view.
type ViewDef = views.ViewDef

// ViewInfo is one SHOW VIEWS row: registry name, class, canonical DDL,
// view graph size, and the §V-C rewrite-hit counter. System.ListViews
// returns them programmatically.
type ViewInfo = workload.ViewInfo

// CompileView compiles a defining pattern (the body of a CREATE VIEW
// statement) to the Table I/II view class it denotes, erroring
// descriptively on patterns outside the inventory.
func CompileView(src string) (View, error) { return views.Compile(src) }

// DefineView wraps a struct-built view in a named ViewDef, deriving the
// canonical DDL text where the view is DDL-expressible.
func DefineView(v View) ViewDef { return views.Define(v) }

// PreparedQuery is a parsed, view-rewritten query cached for repeated
// execution; it re-rewrites transparently when the catalog changes
// (views adopted or dropped).
type PreparedQuery = core.PreparedQuery

// QueryOption tunes one query execution (or one prepared query's
// defaults).
type QueryOption = core.QueryOption

// WithWorkers sets per-query pattern-match parallelism (overrides
// System.Parallelism; 0/1 = sequential, negative = one per CPU).
func WithWorkers(n int) QueryOption { return core.WithWorkers(n) }

// WithMaxRows bounds a query's intermediate rows (overrides
// System.MaxRows; 0 = unlimited).
func WithMaxRows(n int) QueryOption { return core.WithMaxRows(n) }

// WithoutViews bypasses view-based rewriting for this query (the
// baseline of every experiment; what QueryRaw does).
func WithoutViews() QueryOption { return core.WithoutViews() }

// View types (Tables I and II of the paper).
type (
	// View is a graph view: a derivation producing a view graph.
	View = views.View
	// KHopConnector contracts k-length paths between two vertex types.
	KHopConnector = views.KHopConnector
	// SameVertexTypeConnector contracts paths between same-type endpoints.
	SameVertexTypeConnector = views.SameVertexTypeConnector
	// SameEdgeTypeConnector contracts single-edge-type paths.
	SameEdgeTypeConnector = views.SameEdgeTypeConnector
	// SourceToSinkConnector contracts source-to-sink paths.
	SourceToSinkConnector = views.SourceToSinkConnector
	// VertexInclusionSummarizer keeps only the listed vertex types.
	VertexInclusionSummarizer = views.VertexInclusionSummarizer
	// VertexRemovalSummarizer drops the listed vertex types.
	VertexRemovalSummarizer = views.VertexRemovalSummarizer
	// EdgeInclusionSummarizer keeps only the listed edge types.
	EdgeInclusionSummarizer = views.EdgeInclusionSummarizer
	// EdgeRemovalSummarizer drops the listed edge types.
	EdgeRemovalSummarizer = views.EdgeRemovalSummarizer
	// VertexAggregatorSummarizer groups vertices into supervertices.
	VertexAggregatorSummarizer = views.VertexAggregatorSummarizer
	// EdgeAggregatorSummarizer merges parallel edges into superedges.
	EdgeAggregatorSummarizer = views.EdgeAggregatorSummarizer
	// SubgraphAggregatorSummarizer contracts group subgraphs.
	SubgraphAggregatorSummarizer = views.SubgraphAggregatorSummarizer
)

// Observability types re-exported from the metrics core.
type (
	// MetricsRegistry is a System's live metric set: atomic counters, a
	// lock-free latency histogram, and per-query cumulative stats.
	// System.Metrics returns the active one; SetMetrics(nil) disables
	// recording.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every metric, including
	// the process-wide freeze/worker gauges and per-view hit counters
	// (System.MetricsSnapshot). Consecutive snapshots subtract into
	// interval rates and windowed latency quantiles.
	MetricsSnapshot = metrics.Snapshot
	// MetricsHist is an immutable latency-histogram snapshot with
	// Sub/Mean/Quantile helpers.
	MetricsHist = metrics.Hist
	// QueryStat is one query text's cumulative execution record
	// (MetricsRegistry.TopQueries).
	QueryStat = metrics.QueryStat
	// MetricsRing is a fixed-capacity time-series buffer of timestamped
	// snapshots — the storage behind the `kaskade top` dashboard.
	MetricsRing = metrics.Ring
	// MetricsSample is one timestamped snapshot in a MetricsRing.
	MetricsSample = metrics.Sample
)

// NewMetricsRegistry returns an empty registry — pass it to
// System.SetMetrics to reset counters or re-enable recording after
// SetMetrics(nil).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsRing returns a ring buffer holding the most recent capacity
// samples.
func NewMetricsRing(capacity int) *MetricsRing { return metrics.NewRing(capacity) }

// Optimizer-facing types.
type (
	// Candidate is an enumerated view: one the rewrite rules prove
	// answers the query it was enumerated for.
	Candidate = enum.Candidate
	// Selection is the outcome of view selection (§V-B).
	Selection = workload.Selection
	// Plan is the outcome of view-based rewriting for one query (§V-C).
	Plan = workload.Plan
	// GraphProperties are the §V-A statistics behind size estimation.
	GraphProperties = cost.GraphProperties
)

// ViewInventory renders Tables I and II (the supported view classes).
func ViewInventory() string { return core.ViewInventory() }

// DescribeCandidates renders enumerated candidates for display.
func DescribeCandidates(cands []Candidate) string { return core.DescribeCandidates(cands) }

// MaintainedConnector keeps a materialized k-hop connector incrementally
// consistent with its base graph under vertex/edge insertions — the view
// maintenance side of graph views (Zhuge & Garcia-Molina, which the
// paper builds on).
type MaintainedConnector = views.MaintainedConnector

// NewMaintainedConnector materializes the connector over base and
// returns a maintainer; route subsequent mutations through it.
func NewMaintainedConnector(def KHopConnector, base *Graph) (*MaintainedConnector, error) {
	return views.NewMaintainedConnector(def, base)
}

// MaintainedCollection keeps the chained k-hop connector views for
// k=1..K incrementally consistent with one base graph: each mutation's
// path deltas for every k are computed from a single shared frontier
// walk instead of K independent maintainers.
type MaintainedCollection = views.MaintainedCollection

// NewMaintainedCollection materializes def's connector at every hop
// count 1..def.K over base and returns the chained maintainer.
func NewMaintainedCollection(def KHopConnector, base *Graph) (*MaintainedCollection, error) {
	return views.NewMaintainedCollection(def, base)
}

// SaveGraph serializes a graph (schema, vertices, edges, properties) to
// a line-oriented text format that LoadGraph reads back losslessly.
func SaveGraph(w io.Writer, g *Graph) error { return graph.Save(w, g) }

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(r io.Reader) (*Graph, error) { return graph.Load(r) }
