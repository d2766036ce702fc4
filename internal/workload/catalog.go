package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kaskade/internal/cost"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
	"kaskade/internal/par"
	"kaskade/internal/rewrite"
	"kaskade/internal/views"
)

// Materialized is one materialized view: its definition and the physical
// view graph.
type Materialized struct {
	Graph *graph.Graph
	Props *cost.GraphProperties
	// Def is the named declarative definition: the view itself, and the
	// DDL name and canonical CREATE VIEW text for CREATE VIEW statements,
	// the structural name (and derived DDL where one exists) for
	// struct-API views.
	Def views.ViewDef

	// hits counts §V-C rewrites that landed on this view — the usage
	// signal behind SHOW VIEWS, Explain, and future benefit-based
	// eviction. Atomic: bumped under the catalog's read lock.
	hits atomic.Int64
}

// RewriteHits returns how many times §V-C rewriting has landed on this
// view since it was materialized.
func (m *Materialized) RewriteHits() int64 { return m.hits.Load() }

// Catalog holds the materialized views over a base graph and implements
// view-based query rewriting (§V-C): on query arrival it asks
// rewrite.Apply whether each materialized view answers the query and
// picks the rewriting with the lowest estimated evaluation cost. The
// query path consults no rule program; enumeration serves view
// selection only.
//
// A Catalog is safe for concurrent use: reads (Rewrite, Get, Views,
// TotalEdges) take a shared lock, mutations (Add, AddAll, DropView) an
// exclusive one, and every mutation that lands or drops a view bumps
// Epoch — the cheap freshness signal prepared queries poll to know
// their cached plan may be stale. Base, BaseProps and Schema are set at
// construction and read-only afterwards.
type Catalog struct {
	Base      *graph.Graph
	BaseProps *cost.GraphProperties
	Schema    *graph.Schema

	// metrics, when set (SetMetrics), receives rewrite hit/miss and
	// materialization counts. Atomic so SetMetrics may race queries.
	metrics atomic.Pointer[metrics.Registry]

	mu     sync.RWMutex
	epoch  atomic.Uint64
	byName map[string]*Materialized
	order  []string
	// defs maps registry (DDL) names to structural view names — the
	// named-view registry behind CREATE VIEW / DROP VIEW / SHOW VIEWS.
	// Struct-API views register under their structural name, so every
	// materialized view has exactly one registry entry.
	defs map[string]string
}

// SetMetrics attaches (or, with nil, detaches) a metrics registry: the
// catalog bumps its RewriteHits/RewriteMisses on every counting Rewrite
// and Materializations when a view lands.
func (c *Catalog) SetMetrics(r *metrics.Registry) { c.metrics.Store(r) }

// Epoch returns the catalog's mutation counter. It increments every
// time a view lands in or is dropped from the catalog, and every time
// the base graph's delta tail is compacted into a fresh CSR — so a plan
// rewritten at epoch E is current exactly while Epoch() == E. Folding
// graph.Graph.Compactions in means prepared plans and response caches
// refresh at compaction granularity, not per mutation: overlay
// mutations between compactions leave the epoch alone, which is the
// whole point of the delta tail. Reading it costs two atomic loads —
// cheap enough for every prepared-query execution.
func (c *Catalog) Epoch() uint64 {
	e := c.epoch.Load()
	if c.Base != nil {
		e += c.Base.Compactions()
	}
	return e
}

// NewCatalog returns an empty catalog over g (views added with Add).
func NewCatalog(g *graph.Graph) *Catalog {
	return &Catalog{
		Base:      g,
		BaseProps: cost.Collect(g),
		Schema:    g.Schema(),
		byName:    make(map[string]*Materialized),
		defs:      make(map[string]string),
	}
}

// Add materializes one view into the catalog (idempotent by view name):
// AddAll with one view at one worker. Materialization runs outside the
// catalog lock — only the insertion excludes readers — so queries keep
// executing while a view builds.
func (c *Catalog) Add(v views.View) error {
	return c.AddAll([]views.View{v}, 1)
}

func (c *Catalog) has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, dup := c.byName[name]
	return dup
}

// insert lands one built view, skipping it if a concurrent Add won the
// race for the name, and bumps the epoch when the catalog changed. The
// view graph is frozen (CSR view built) before it becomes visible, so
// every query rewritten over a landed view runs on the frozen path
// without paying the index build on its first execution.
func (c *Catalog) insert(name string, m *Materialized) {
	m.Graph.Freeze()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		return
	}
	c.byName[name] = m
	c.order = append(c.order, name)
	if c.defs == nil {
		c.defs = make(map[string]string)
	}
	// A DDL view may already hold this registry name (a CREATE VIEW
	// named like another view's structural name). The struct path
	// cannot error, so the view lands unregistered: still listed,
	// rewritten over, and droppable by its structural name — DropView
	// resolves exact structural matches first.
	if _, taken := c.defs[m.Def.Name]; !taken {
		c.defs[m.Def.Name] = name
	}
	c.epoch.Add(1)
	if r := c.metrics.Load(); r != nil {
		r.Materializations.Inc()
	}
}

// ErrViewExists is wrapped by CreateView when the view name (or an
// identically defined view) is already in the catalog; DROP VIEW it
// first.
var ErrViewExists = fmt.Errorf("view already exists")

// ErrNoSuchView is wrapped by operations that name a view the catalog
// does not hold (DROP VIEW on an unknown name). Typed so service
// surfaces can map it (the kaskaded daemon returns 404 for it).
var ErrNoSuchView = fmt.Errorf("view does not exist")

// CreateView materializes a declaratively defined, named view into the
// catalog — the CREATE VIEW execution path. Unlike the idempotent Add,
// a name collision (with another registry name or with an identically
// defined materialized view) is an error wrapping ErrViewExists: the
// DDL lifecycle makes re-CREATE meaningful only after DROP VIEW.
// Materialization runs outside the catalog lock; landing the view bumps
// the epoch, so prepared statements re-rewrite over it on their next
// execution.
func (c *Catalog) CreateView(def views.ViewDef, workers int) error {
	if def.Name == "" || def.View == nil {
		return fmt.Errorf("workload: view definition needs a name and a compiled view")
	}
	structural := def.View.Name()
	if err := c.checkNames(def.Name, structural); err != nil {
		return err
	}
	vg, err := views.Materialize(def.View, c.Base, workers)
	if err != nil {
		return fmt.Errorf("workload: materializing %s: %w", def.Name, err)
	}
	m := &Materialized{Graph: vg, Props: cost.Collect(vg), Def: def}
	m.Graph.Freeze()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the lock: a racing CREATE may have landed the name
	// while this one materialized.
	if err := c.checkNamesLocked(def.Name, structural); err != nil {
		return err
	}
	c.byName[structural] = m
	c.defs[def.Name] = structural
	c.order = append(c.order, structural)
	c.epoch.Add(1)
	if r := c.metrics.Load(); r != nil {
		r.Materializations.Inc()
	}
	return nil
}

func (c *Catalog) checkNames(defName, structural string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkNamesLocked(defName, structural)
}

func (c *Catalog) checkNamesLocked(defName, structural string) error {
	if s, dup := c.defs[defName]; dup {
		return fmt.Errorf("workload: %w: %q (over %s)", ErrViewExists, defName, s)
	}
	if _, dup := c.byName[defName]; dup {
		return fmt.Errorf("workload: %w: %q names a materialized view", ErrViewExists, defName)
	}
	if m, dup := c.byName[structural]; dup {
		return fmt.Errorf("workload: %w: an identical view is materialized as %q", ErrViewExists, m.Def.Name)
	}
	return nil
}

// AddAll materializes a batch of views into the catalog,
// running independent materializations concurrently on up to `workers`
// goroutines (0 or 1 = sequential, negative = one per available CPU).
// Worker budget left over after one-per-view is pushed down into each
// view's own build (views.Materialize fans a connector's path search
// out), so a single huge connector still saturates the pool. Each build
// derives a fresh graph from the read-only base, so builds never share
// mutable state; catalog insertion happens on the calling goroutine
// afterwards, in argument order, which keeps Views() order,
// idempotency, and first-error behavior identical to a loop of Add
// calls. Struct-API views register under their structural name, so
// SHOW VIEWS lists them alongside DDL-created ones.
func (c *Catalog) AddAll(vs []views.View, workers int) error {
	type build struct {
		view views.View
		name string
		mat  *Materialized
		err  error
	}
	var builds []*build
	seen := make(map[string]bool, len(vs))
	for _, v := range vs {
		name := v.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		if c.has(name) {
			continue
		}
		builds = append(builds, &build{view: v, name: name})
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Divide the worker budget: one slot per view first, and any spare
	// capacity pushed down into each view's own build (never
	// oversubscribed beyond the original budget).
	inner := 1
	if len(builds) > 0 && workers > len(builds) {
		inner = workers / len(builds)
	}
	if workers > len(builds) {
		workers = len(builds)
	}
	materialize := func(b *build) {
		vg, err := views.Materialize(b.view, c.Base, inner)
		if err != nil {
			b.err = err
			return
		}
		b.mat = &Materialized{Graph: vg, Props: cost.Collect(vg), Def: views.Define(b.view)}
	}
	if workers <= 1 {
		// Sequential keeps Add's early stop: nothing past the first
		// error is materialized.
		for _, b := range builds {
			materialize(b)
			if b.err != nil {
				break
			}
		}
	} else {
		par.For(len(builds), workers, func(i int) { materialize(builds[i]) })
	}
	for _, b := range builds {
		if b.err != nil {
			return fmt.Errorf("workload: materializing %s: %w", b.name, b.err)
		}
		if b.mat == nil {
			// A sequential run stopped at an earlier error before
			// building this view; the loop returned above already.
			break
		}
		c.insert(b.name, b.mat)
	}
	return nil
}

// DropView evicts a materialized view from the catalog, releasing the
// view graph, and bumps the epoch — the part that matters for
// correctness: a PreparedQuery whose cached plan was rewritten over the
// dropped view sees the epoch move and re-rewrites on its next
// execution instead of running the stale plan. The name may be either
// the registry (DDL) name or the structural view name. It reports
// whether the view was present. An execution already racing the drop
// may finish over the old plan — the view graph stays alive until the
// last reference drops, so such a straggler reads consistent (if
// one-epoch-old) data, never freed memory.
func (c *Catalog) DropView(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// An exact structural match wins over a registry alias — the
	// structural name is what Plan.ViewName and Views() report, so a
	// caller naming one means that physical view even if another view's
	// DDL name shadows it.
	structural := name
	if _, ok := c.byName[name]; !ok {
		if s, ok := c.defs[name]; ok {
			structural = s
		}
	}
	m, ok := c.byName[structural]
	if !ok {
		return false
	}
	delete(c.byName, structural)
	// Release the registry name only if it points here: a view whose
	// def name was shadowed at insert time never owned the entry.
	if c.defs[m.Def.Name] == structural {
		delete(c.defs, m.Def.Name)
	}
	for i, n := range c.order {
		if n == structural {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.epoch.Add(1)
	return true
}

// ViewInfo is one SHOW VIEWS row: the registry name, class, canonical
// DDL text (empty for views the DDL surface cannot express), view graph
// size, and the rewrite-hit counter.
type ViewInfo struct {
	Name     string
	Kind     string
	DDL      string
	Vertices int
	Edges    int
	Hits     int64
}

// ListViews reports every materialized view in creation order — the
// data behind SHOW VIEWS.
func (c *Catalog) ListViews() []ViewInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ViewInfo, 0, len(c.order))
	for _, n := range c.order {
		m := c.byName[n]
		out = append(out, ViewInfo{
			Name:     m.Def.Name,
			Kind:     string(m.Def.View.Kind()),
			DDL:      m.Def.DDL,
			Vertices: m.Graph.NumVertices(),
			Edges:    m.Graph.NumEdges(),
			Hits:     m.hits.Load(),
		})
	}
	return out
}

// Views returns the materialized view names in creation order.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// Get returns a materialized view by name.
func (c *Catalog) Get(name string) (*Materialized, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.byName[name]
	return m, ok
}

// Resolve returns a materialized view by registry (DDL) name or
// structural name — the same resolution DropView applies, with an exact
// structural match winning over a registry alias. Surfaces that accept
// user-supplied view names (the daemon's /v1/topology) go through here.
func (c *Catalog) Resolve(name string) (*Materialized, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m, ok := c.byName[name]; ok {
		return m, true
	}
	if s, ok := c.defs[name]; ok {
		m, ok := c.byName[s]
		return m, ok
	}
	return nil, false
}

// TotalEdges returns the storage the catalog consumes, in edges.
func (c *Catalog) TotalEdges() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, m := range c.byName {
		total += m.Graph.NumEdges()
	}
	return total
}

// Plan is the outcome of view-based rewriting for one query.
type Plan struct {
	Query    gql.Query    // the (possibly rewritten) query to execute
	Graph    *graph.Graph // the graph to execute it against
	ViewName string       // "" when executing over the base graph
	Cost     float64      // estimated evaluation cost of the plan
}

// Rewrite performs view-based query rewriting (§V-C): it sends every
// materialized view through rewrite.Apply, prices each rewriting that
// Apply proves, and returns the plan with the smallest estimated
// evaluation cost (the base plan when no view helps; among equally
// cheap views, the smallest name). Rewritings use a single view, like
// the paper's prototype. No rule program is consulted: a query plans by
// proof alone. Rewrite holds the catalog's read lock, so it may run
// concurrently with queries and with other Rewrites, and sees a
// consistent view set even while Add/AddAll land new views.
//
// Rewrite is the execution path's entry point and counts its decision:
// a plan landing on a view bumps that view's hit counter (and the
// registry's RewriteHits), a base-graph plan bumps RewriteMisses.
// Prepared statements rewrite once per catalog epoch, so counters
// record distinct planning decisions, not executions. Plan inspection
// (EXPLAIN, System.Explain) must use PlanOnly so SHOW VIEWS counters
// keep meaning actual usage.
func (c *Catalog) Rewrite(q gql.Query) (*Plan, error) {
	return c.rewrite(q, true)
}

// PlanOnly is Rewrite without the usage accounting: it returns the
// identical plan but bumps neither the per-view hit counters nor the
// registry's hit/miss counters — the entry point for EXPLAIN and other
// inspection surfaces where no query runs.
func (c *Catalog) PlanOnly(q gql.Query) (*Plan, error) {
	return c.rewrite(q, false)
}

func (c *Catalog) rewrite(q gql.Query, count bool) (*Plan, error) {
	baseCost, err := cost.EvalCost(q, c.BaseProps, c.Schema, cost.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	best := &Plan{Query: q, Graph: c.Base, Cost: baseCost}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, name := range c.order {
		plan := c.planFor(q, c.byName[name])
		if plan == nil {
			continue
		}
		// Ties keep the base graph, then go to the smallest view name.
		if plan.Cost < best.Cost || plan.Cost == best.Cost && best.ViewName != "" && name < best.ViewName {
			best = plan
		}
	}
	c.countDecision(count, best)
	return best, nil
}

// countDecision records one §V-C rewrite decision: a view landing bumps
// the view's own hit counter (the signal SHOW VIEWS and Explain
// surface, and the input to benefit-based eviction) and the registry's
// RewriteHits; a base-graph plan bumps RewriteMisses. PlanOnly passes
// count=false and records nothing. Called under the read lock.
func (c *Catalog) countDecision(count bool, best *Plan) {
	if !count {
		return
	}
	r := c.metrics.Load()
	if best.ViewName != "" {
		c.byName[best.ViewName].hits.Add(1)
		if r != nil {
			r.RewriteHits.Inc()
		}
	} else if r != nil {
		r.RewriteMisses.Inc()
	}
}

// planFor prices q rewritten over the materialized view m, or returns
// nil when rewrite.Apply proves no rewriting or it cannot be priced.
func (c *Catalog) planFor(q gql.Query, m *Materialized) *Plan {
	rw, err := rewrite.Apply(q, m.Def.View, c.Schema)
	if err != nil {
		return nil
	}
	rwCost, err := cost.EvalCost(rw, m.Props, m.Graph.Schema(), cost.DefaultAlpha)
	if err != nil {
		return nil
	}
	return &Plan{Query: rw, Graph: m.Graph, ViewName: m.Def.View.Name(), Cost: rwCost}
}
