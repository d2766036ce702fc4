package core

import (
	"context"
	"sync"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// PreparedQuery is a query parsed and view-rewritten once, executed
// many times — the database/sql Stmt of Kaskade. It is what makes a
// repeated workload cheap: per-execution cost drops to an epoch check
// (one atomic load) plus the match itself, skipping parse and §V-C
// rewriting entirely.
//
// The cached plan tracks the catalog: AdoptSelection, MaterializeView,
// and DropView all bump the catalog's epoch, and the next execution
// transparently re-rewrites against the changed view set — in
// particular, a statement planned over a since-dropped view re-rewrites
// instead of executing the stale plan. Concurrent executions racing an
// epoch bump at worst run one more time over the previous plan; a
// dropped view's graph stays alive until such stragglers release it,
// so they read consistent (one-epoch-old) data, never freed memory.
//
// A PreparedQuery is safe for concurrent use by multiple goroutines.
type PreparedQuery struct {
	sys  *System
	src  string
	q    gql.Query
	opts []QueryOption // Prepare-time defaults, before per-exec opts

	mu    sync.Mutex
	plan  *workload.Plan
	epoch uint64
	valid bool
}

// Prepare parses src and returns a prepared query whose plan is
// rewritten lazily on first execution and cached across executions.
// opts become the query's defaults; per-execution options override
// them. Unlike database/sql statements a PreparedQuery holds no
// resources, so it has no Close.
func (s *System) Prepare(src string, opts ...QueryOption) (*PreparedQuery, error) {
	q, err := gql.Parse(src)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{sys: s, src: src, q: q, opts: opts}, nil
}

// Src returns the query text the statement was prepared from.
func (p *PreparedQuery) Src() string { return p.src }

// currentPlan returns the cached plan, re-rewriting iff the catalog
// epoch moved since the plan was cached (or nothing is cached yet).
func (p *PreparedQuery) currentPlan(cfg queryConfig) (*workload.Plan, error) {
	if cfg.noViews {
		// The raw plan never depends on the catalog; not worth caching.
		return &workload.Plan{Query: p.q, Graph: p.sys.graph}, nil
	}
	// Read the epoch before rewriting: if a view lands mid-rewrite we
	// cache the fresher plan under the older epoch and merely re-rewrite
	// once more on the next execution — never the reverse staleness.
	e := p.sys.catalog.Epoch()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.valid || p.epoch != e {
		plan, err := p.sys.catalog.Rewrite(p.q)
		if err != nil {
			return nil, err
		}
		p.plan, p.epoch, p.valid = plan, e, true
	}
	return p.plan, nil
}

// resolve merges Prepare-time defaults with per-execution options and
// picks the plan.
func (p *PreparedQuery) resolve(opts []QueryOption) (queryConfig, *workload.Plan, error) {
	cfg := p.sys.config(append(append([]QueryOption(nil), p.opts...), opts...))
	plan, err := p.currentPlan(cfg)
	return cfg, plan, err
}

// ExecContext executes the prepared query into a buffered Result,
// honoring ctx cancellation/deadline throughout the match.
func (p *PreparedQuery) ExecContext(ctx context.Context, opts ...QueryOption) (*exec.Result, error) {
	cfg, plan, err := p.resolve(opts)
	if err != nil {
		p.sys.countError()
		return nil, err
	}
	return p.sys.executor(cfg, plan.Graph, p.src).ExecuteContext(ctx, plan.Query)
}

// Exec is ExecContext without cancellation.
func (p *PreparedQuery) Exec(opts ...QueryOption) (*exec.Result, error) {
	return p.ExecContext(context.Background(), opts...)
}

// QueryContext executes the prepared query as a streaming cursor (see
// System.QueryRows). The caller must Close the cursor.
func (p *PreparedQuery) QueryContext(ctx context.Context, opts ...QueryOption) (*exec.Rows, error) {
	cfg, plan, err := p.resolve(opts)
	if err != nil {
		p.sys.countError()
		return nil, err
	}
	return p.sys.executor(cfg, plan.Graph, p.src).Stream(ctx, plan.Query)
}

// Plan returns the plan the next execution would run (rewriting if the
// cached one is stale) — the prepared-query counterpart of Explain.
func (p *PreparedQuery) Plan() (*workload.Plan, error) {
	_, plan, err := p.resolve(nil)
	return plan, err
}
