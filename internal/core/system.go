// Package core wires Kaskade's components (Fig. 2 of the paper) into one
// system: view enumeration, the inverse of the rewrite rules, feeds the
// workload analyzer (view selection); the query rewriter tries every
// materialized view through rewrite.Apply and plans by proof alone, with
// no enumeration on the query path; an execution engine evaluates plans
// over the raw graph or over materialized views. The root kaskade
// package re-exports this as the public API.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"kaskade/internal/cost"
	"kaskade/internal/enum"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
	"kaskade/internal/par"
	"kaskade/internal/views"
	"kaskade/internal/workload"
)

// System is a Kaskade instance over one base graph.
//
// A System is safe for concurrent use: graphs are read-only after
// load, and the catalog guards its view set with a read/write lock, so
// queries (Query, QueryContext, QueryRows, prepared executions) may
// overlap each other and AdoptSelection/MaterializeView. Each catalog
// mutation bumps the catalog epoch; prepared queries poll it and
// transparently re-rewrite, and ad-hoc queries always rewrite against
// the current view set.
//
// Views are managed declaratively through Exec (CREATE [MATERIALIZED]
// VIEW name AS <pattern>, DROP VIEW, SHOW VIEWS — see ddl.go); the
// struct-based MaterializeView/AdoptSelection/DropView calls are the
// programmatic face of the same catalog.
type System struct {
	graph    *graph.Graph
	analyzer *workload.Analyzer
	catalog  *workload.Catalog
	// metrics is the always-on observability registry (see
	// internal/metrics); SetMetrics(nil) disables recording (the
	// overhead A/B switch the bench guard uses). Atomic so the switch
	// may race in-flight queries.
	metrics atomic.Pointer[metrics.Registry]
	// MaxRows guards query execution (0 = unlimited).
	MaxRows int
	// Parallelism controls both pattern-match workers during query
	// execution and concurrent view materialization in AdoptSelection:
	// 0 or 1 = one worker, N>1 = that many workers, negative = one per
	// available CPU. Parallel execution is deterministic — results are
	// identical at every worker count (see internal/exec).
	Parallelism int
}

// New creates a system over the given graph. The graph should have a
// schema — Kaskade's constraint mining feeds on it (§IV-A); without one,
// only raw execution works. The graph is frozen here (its immutable CSR
// view built and cached), so every query and traversal runs on the
// frozen path from the first call; per the read-only-after-load
// contract, the graph must not be mutated after this.
func New(g *graph.Graph) *System {
	g.Freeze()
	s := &System{
		graph:    g,
		analyzer: workload.NewAnalyzer(g.Schema()),
		catalog:  workload.NewCatalog(g),
	}
	r := metrics.NewRegistry()
	s.metrics.Store(r)
	s.catalog.SetMetrics(r)
	return s
}

// Metrics returns the System's metrics registry (nil when disabled via
// SetMetrics). Query execution, rewriting, and materialization record
// into it continuously; read it directly for cumulative counters and
// top-queries, or take consistent point-in-time copies with
// MetricsSnapshot.
func (s *System) Metrics() *metrics.Registry { return s.metrics.Load() }

// SetMetrics replaces the System's metrics registry; nil disables
// recording entirely (the A/B switch behind the metrics-overhead bench
// guard). Safe to call concurrently with queries: in-flight executions
// finish recording into whichever registry they started with.
func (s *System) SetMetrics(r *metrics.Registry) {
	s.metrics.Store(r)
	s.catalog.SetMetrics(r)
}

// MetricsSnapshot returns a point-in-time copy of every metric: the
// registry's counters and latency histogram, the process-wide freeze
// and worker-pool gauges, and the per-view rewrite-hit counters in
// catalog order. It is lock-free with respect to query execution, so
// a monitoring loop (the `kaskade top` sampler) never stalls queries.
func (s *System) MetricsSnapshot() metrics.Snapshot {
	var snap metrics.Snapshot
	if r := s.metrics.Load(); r != nil {
		snap = r.Snapshot()
	}
	snap.FreezeEvents = graph.CSRBuilds()
	snap.WorkersActive = par.ActiveWorkers()
	snap.WorkersPeak = par.PeakWorkers()
	// CachedFrozen, not Freeze: a monitoring scrape reports the columns
	// that exist, it never pays (or fails) an O(V+E) freeze build.
	if fz := s.graph.CachedFrozen(); fz != nil {
		cols, colBytes := fz.ColumnStats()
		snap.ColumnCount = int64(cols)
		snap.ColumnBytes = colBytes
		tv, te := fz.TailSize()
		snap.DeltaTailVertices = int64(tv)
		snap.DeltaTailEdges = int64(te)
	}
	snap.OverlayReads = graph.OverlayReads()
	snap.Compactions = graph.CompactionsTotal()
	snap.LastCompaction = graph.LastCompactionDuration()
	for _, v := range s.catalog.ListViews() {
		snap.Views = append(snap.Views, metrics.ViewCount{Name: v.Name, Hits: v.Hits})
	}
	return snap
}

// Graph returns the base graph.
func (s *System) Graph() *graph.Graph { return s.graph }

// Catalog returns the materialized view catalog.
func (s *System) Catalog() *workload.Catalog { return s.catalog }

// Epoch returns the catalog's mutation counter: it increments on every
// view created or dropped, so any result computed at epoch E is
// guaranteed unaffected by catalog changes exactly while Epoch() == E.
// It is the invalidation signal for caches layered above the System —
// the kaskaded response cache keys entries by it.
func (s *System) Epoch() uint64 { return s.catalog.Epoch() }

// Stats returns the maintained graph data properties (§V-A).
func (s *System) Stats() *cost.GraphProperties { return cost.Collect(s.graph) }

// Query parses, performs view-based rewriting against the materialized
// catalog (§V-C), and executes the best plan. It is QueryContext
// without cancellation; repeated workloads should Prepare instead.
func (s *System) Query(src string) (*exec.Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryWithPlan is Query, also returning the chosen plan for inspection.
func (s *System) QueryWithPlan(src string) (*exec.Result, *workload.Plan, error) {
	q, err := gql.Parse(src)
	if err != nil {
		s.countError()
		return nil, nil, err
	}
	cfg := s.config(nil)
	plan, err := s.plan(q, cfg)
	if err != nil {
		s.countError()
		return nil, nil, err
	}
	res, err := s.executor(cfg, plan.Graph, src).Execute(plan.Query)
	return res, plan, err
}

// QueryRaw executes the query against the base graph, bypassing views
// (the baseline of every experiment). It is shorthand for
// QueryContext with the WithoutViews option.
func (s *System) QueryRaw(src string) (*exec.Result, error) {
	return s.QueryContext(context.Background(), src, WithoutViews())
}

// EnumerateViews runs view enumeration (§IV) for one query and returns
// the candidates: the views rewrite.Apply accepts for it, as SelectViews
// prices them. Query planning enumerates nothing.
func (s *System) EnumerateViews(src string) ([]enum.Candidate, error) {
	q, err := gql.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := s.analyzer.Enumerate(q)
	if err != nil {
		return nil, err
	}
	return res.Candidates, nil
}

// SelectViews runs view selection (§V-B) for a workload of query strings
// under a space budget in edges, without materializing anything.
func (s *System) SelectViews(workloadQueries []string, budgetEdges int64) (*workload.Selection, error) {
	qs := make([]gql.Query, len(workloadQueries))
	for i, src := range workloadQueries {
		q, err := gql.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("kaskade: workload query %d: %w", i, err)
		}
		qs[i] = q
	}
	return s.analyzer.Analyze(s.graph, qs, budgetEdges)
}

// AdoptSelection materializes every chosen view of a selection into the
// catalog. Independent views are built concurrently when Parallelism
// allows, with leftover worker budget fanned out inside each
// connector's own per-source path search; catalog order matches the
// selection order regardless. Adoption bumps the catalog epoch, so
// prepared queries pick up the new views on their next execution.
func (s *System) AdoptSelection(sel *workload.Selection) error {
	vs := make([]views.View, len(sel.Chosen))
	for i, ev := range sel.Chosen {
		vs[i] = ev.Candidate.View
	}
	return s.catalog.AddAll(vs, s.Parallelism)
}

// MaterializeView materializes a single view directly (manual view
// management). The build fans out over Parallelism workers when the view
// class supports it.
func (s *System) MaterializeView(v views.View) error {
	return s.catalog.AddAll([]views.View{v}, s.Parallelism)
}

// DropView evicts a materialized view from the catalog by name,
// releasing its view graph and bumping the catalog epoch: ad-hoc
// queries stop rewriting over it immediately, and prepared queries
// whose cached plan used it transparently re-rewrite on their next
// execution. It reports whether the view was present.
func (s *System) DropView(name string) bool {
	return s.catalog.DropView(name)
}

// Explain describes the plan Kaskade would choose for a query, without
// executing it — and without touching any usage counter: planning goes
// through Catalog.PlanOnly, so SHOW VIEWS rewrite-hit counters keep
// meaning actual executions. Use ExplainAnalyze to run the plan and see
// per-stage actuals.
func (s *System) Explain(src string) (string, error) {
	q, err := gql.Parse(src)
	if err != nil {
		return "", err
	}
	plan, err := s.catalog.PlanOnly(q)
	if err != nil {
		return "", err
	}
	return s.explainText(plan), nil
}

// ExplainAnalyze executes src through the ordinary query path and
// renders the chosen plan together with per-stage actuals: wall time,
// row counts, and parallel chunk counts per stage, plus the worker
// count and aggregation mode the execution actually used. Unlike
// Explain, this is a real execution — rewrite-hit and query counters
// move, and the reported row counts are exactly what QueryContext
// would have returned.
func (s *System) ExplainAnalyze(ctx context.Context, src string, opts ...QueryOption) (string, error) {
	q, err := gql.Parse(src)
	if err != nil {
		s.countError()
		return "", err
	}
	return s.explainAnalyze(ctx, q, src, opts)
}

// explainAnalyze is ExplainAnalyze over a parsed query — shared with
// the EXPLAIN ANALYZE statement path in Exec.
func (s *System) explainAnalyze(ctx context.Context, q gql.Query, label string, opts []QueryOption) (string, error) {
	cfg := s.config(opts)
	plan, err := s.plan(q, cfg)
	if err != nil {
		s.countError()
		return "", err
	}
	ex := s.executor(cfg, plan.Graph, label)
	ex.Prof = &exec.Profile{}
	if _, err := ex.ExecuteContext(ctx, plan.Query); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(s.explainText(plan))
	fmt.Fprintf(&b, "execution: workers=%d\n", ex.Prof.Workers)
	b.WriteString(ex.Prof.String())
	return b.String(), nil
}

// explainText renders one plan the way Explain and EXPLAIN [ANALYZE]
// print it.
func (s *System) explainText(plan *workload.Plan) string {
	var b strings.Builder
	if plan.ViewName == "" {
		fmt.Fprintf(&b, "plan: base graph scan (no applicable materialized view)\n")
	} else {
		fmt.Fprintf(&b, "plan: rewritten over materialized view %s\n", plan.ViewName)
		if m, ok := s.catalog.Get(plan.ViewName); ok {
			if m.Def.DDL != "" {
				// The canonical DDL round-trips: feeding it back through
				// Exec recreates an identical view.
				fmt.Fprintf(&b, "view: %s\n", m.Def.DDL)
			} else {
				fmt.Fprintf(&b, "view: %s (struct-defined; no DDL form)\n", m.Def.View.Describe())
			}
			fmt.Fprintf(&b, "rewrite hits: %d\n", m.RewriteHits())
		}
	}
	fmt.Fprintf(&b, "estimated cost: %.4g\n", plan.Cost)
	fz := plan.Graph.Freeze()
	cols, colBytes := fz.ColumnStats()
	fmt.Fprintf(&b, "storage: frozen csr (|V|=%d, |E|=%d, edge types=%d, columns=%d (%d B))\n",
		fz.NumVertices(), fz.NumEdges(), len(fz.EdgeTypes()), cols, colBytes)
	if tv, te := fz.TailSize(); tv+te > 0 {
		fmt.Fprintf(&b, "delta: overlay tail %d vertices, %d edges (compactions=%d)\n",
			tv, te, plan.Graph.Compactions())
	}
	fmt.Fprintf(&b, "query: %s\n", plan.Query.String())
	return b.String()
}

// ViewInventory renders Tables I and II: the connector and summarizer
// classes the view template library supports, each with the canonical
// defining pattern CREATE VIEW accepts (the text round-trips through
// the parser and the view compiler). The same-vertex-type connector has
// no such pattern and is built through the struct API.
func ViewInventory() string {
	type row struct{ name, desc, ddl string }
	connectors := []row{
		{"Same-vertex-type connector", "Target vertices are all pairs of vertices with a specific vertex type.", ""},
		{"k-hop connector", "Target vertices are all vertex pairs that are connected through k-length paths.",
			views.KHopConnector{SrcType: "S", DstType: "T", K: 2}.Cypher()},
		{"Same-edge-type connector", "Target vertices are all pairs of vertices connected with a path of edges of a specific edge type.",
			views.SameEdgeTypeConnector{EType: "E", MaxLen: 8}.Cypher()},
		{"Source-to-sink connector", "Target vertices are (source, sink) pairs: no incoming resp. no outgoing edges.",
			views.SourceToSinkConnector{MaxLen: 8}.Cypher()},
	}
	summarizers := []row{
		{"Vertex-removal summarizer", "Removes vertices (and connected edges) satisfying a predicate.",
			views.VertexRemovalSummarizer{Types: []string{"T"}}.Cypher()},
		{"Edge-removal summarizer", "Removes edges satisfying a predicate.",
			views.EdgeRemovalSummarizer{Types: []string{"E"}}.Cypher()},
		{"Vertex-inclusion summarizer", "Keeps vertices satisfying the predicate and edges with both endpoints kept.",
			views.VertexInclusionSummarizer{Types: []string{"S", "T"}}.Cypher()},
		{"Edge-inclusion summarizer", "Keeps only edges satisfying a predicate.",
			views.EdgeInclusionSummarizer{Types: []string{"E"}}.Cypher()},
		{"Vertex-aggregator summarizer", "Groups vertices satisfying a predicate into supervertices with aggregated properties.",
			views.VertexAggregatorSummarizer{VType: "T", GroupBy: "g"}.Cypher()},
		{"Edge-aggregator summarizer", "Groups parallel edges into superedges with aggregated properties.",
			views.EdgeAggregatorSummarizer{EType: "E"}.Cypher()},
		{"Subgraph-aggregator summarizer", "Groups vertices and the edges among them into supervertices.",
			views.SubgraphAggregatorSummarizer{VType: "T", GroupBy: "g"}.Cypher()},
	}
	var b strings.Builder
	emit := func(rows []row) {
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-32s %s\n", r.name, r.desc)
			if r.ddl == "" {
				fmt.Fprintf(&b, "  %-32s struct API only: no pattern says \"no intermediate T\"\n", "")
				continue
			}
			fmt.Fprintf(&b, "  %-32s e.g. CREATE VIEW v AS %s\n", "", r.ddl)
		}
	}
	b.WriteString("Table I: Connectors in KASKADE\n")
	emit(connectors)
	b.WriteString("Table II: Summarizers in KASKADE\n")
	emit(summarizers)
	return b.String()
}

// DescribeCandidates renders enumerated candidates in enumeration order,
// appending the canonical DDL pattern where the candidate is
// DDL-expressible — the text an operator can hand straight back to
// CREATE VIEW.
func DescribeCandidates(cands []enum.Candidate) string {
	lines := make([]string, 0, len(cands))
	for _, c := range cands {
		line := c.View.Describe()
		if pat, err := views.CanonicalPattern(c.View); err == nil {
			line += "\n  ddl: " + pat
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}
