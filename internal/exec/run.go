package exec

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"time"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
)

// Executor runs queries against a graph. The zero value plus a Graph is
// ready to use; MaxRows, when positive, aborts queries that produce more
// than that many intermediate rows (a guard against accidentally
// intractable pattern matches — the very thing Kaskade's views exist to
// avoid).
//
// Workers controls pattern-match parallelism: the matcher enumerates
// the first node's candidates on min(Workers, candidates) workers, where
// 0 or 1 means one and any negative value means one per available CPU.
// One worker walks the candidates inline on the consuming goroutine;
// more split them into chunks on a worker pool and merge the chunks in
// candidate order, so results are identical at every worker count row
// for row: a projection streams each chunk's rows eagerly, an aggregate
// query merges per-chunk partial accumulators (see parallel.go). The
// graph must not be mutated during execution — after load, a
// graph.Graph is read-only and safe for concurrent traversal.
//
// Execution comes in two forms built on one streaming core:
// ExecuteContext buffers every row into a Result; Stream returns a Rows
// cursor that yields rows incrementally, in exactly the order the
// buffered path would produce them. Both observe context cancellation:
// the matcher polls the context between traversal steps, so a
// pathological pattern match stops soon after the caller walks away.
type Executor struct {
	G       *graph.Graph
	MaxRows int
	Workers int

	// Metrics, when set, records every top-level execution (count,
	// rows, latency, errors) into the registry; Label names the
	// execution in the registry's per-query stats (empty = aggregate
	// counters only). Subqueries of a SELECT are part of their parent
	// execution and are not observed separately.
	Metrics *metrics.Registry
	Label   string

	// Prof, when set, collects per-stage actuals (rows, chunks, wall
	// time) for this execution — the EXPLAIN ANALYZE hook. A Profile is
	// single-use: attach a fresh one per execution.
	Prof *Profile
}

// ErrRowLimit is returned when a query exceeds the executor's MaxRows.
var ErrRowLimit = fmt.Errorf("exec: row limit exceeded")

// errStreamStop aborts the matcher when a streaming consumer stops
// early (Rows.Close, or breaking out of an iter.Seq2 loop). It never
// escapes the streaming core.
var errStreamStop = errors.New("exec: stream consumer stopped")

// Run executes a query string against g on one match worker.
func Run(g *graph.Graph, src string) (*Result, error) {
	return RunParallel(g, src, 1)
}

// RunParallel executes a query string against g with the given
// match-parallelism (see Executor.Workers for the knob's semantics).
func RunParallel(g *graph.Graph, src string, workers int) (*Result, error) {
	return RunParallelContext(context.Background(), g, src, workers)
}

// RunParallelContext is RunParallel with cancellation.
func RunParallelContext(ctx context.Context, g *graph.Graph, src string, workers int) (*Result, error) {
	q, err := gql.Parse(src)
	if err != nil {
		return nil, err
	}
	return (&Executor{G: g, Workers: workers}).ExecuteContext(ctx, q)
}

// Execute evaluates a parsed query into a buffered Result.
func (ex *Executor) Execute(q gql.Query) (*Result, error) {
	return ex.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation: it drains the streaming
// core into a Result, returning ctx.Err() if the context is cancelled
// mid-query. A nil ctx means no cancellation.
func (ex *Executor) ExecuteContext(ctx context.Context, q gql.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cols, body, err := ex.observedStream(ctx, q)
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: cols}
	for row, err := range body {
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Stream evaluates a parsed query into a Rows cursor that yields rows
// incrementally — byte-identical, in identical order, to what
// ExecuteContext would buffer. The caller must Close the cursor.
// Closing early (or cancelling ctx) aborts the underlying match,
// including its worker pool when Workers > 1.
func (ex *Executor) Stream(ctx context.Context, q gql.Query) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The cursor owns a derived context so Close can abort a match that
	// is blocked deep in traversal (or waiting on parallel partitions)
	// even when the caller's ctx stays live.
	ictx, cancel := context.WithCancel(ctx)
	cols, body, err := ex.observedStream(ictx, q)
	if err != nil {
		cancel()
		return nil, err
	}
	return newRows(cols, body, cancel), nil
}

// observedStream wraps the execution core with metrics and profile
// recording. The wrapper fires once per top-level execution, when the
// row sequence finishes (normally, on error, or when the consumer
// stops early — the work done up to that point is what gets recorded);
// subqueries reach the core through stream directly and are not
// double-counted.
func (ex *Executor) observedStream(ctx context.Context, q gql.Query) ([]string, iter.Seq2[Row, error], error) {
	cols, body, err := ex.stream(ctx, q)
	if err != nil {
		if ex.Metrics != nil {
			ex.Metrics.QueryErrors.Inc()
		}
		return nil, nil, err
	}
	if ex.Metrics == nil && ex.Prof == nil {
		return cols, body, nil
	}
	inner := body
	body = func(yield func(Row, error) bool) {
		start := time.Now()
		var rows int64
		errored := false
		inner(func(r Row, e error) bool {
			if e != nil {
				errored = true
			} else {
				rows++
			}
			return yield(r, e)
		})
		d := time.Since(start)
		if ex.Prof != nil {
			ex.Prof.Rows, ex.Prof.Total = rows, d
		}
		if ex.Metrics != nil {
			ex.Metrics.ObserveQuery(ex.Label, d, rows, errored)
		}
	}
	return cols, body, nil
}

// stream is the single execution core: it resolves a query to its
// column names and a one-shot row sequence. The sequence yields
// (row, nil) per result row and terminates after at most one
// (nil, err). Both Execute and Stream consume it.
func (ex *Executor) stream(ctx context.Context, q gql.Query) ([]string, iter.Seq2[Row, error], error) {
	switch q := q.(type) {
	case *gql.MatchQuery:
		return ex.streamMatch(ctx, q)
	case *gql.SelectQuery:
		return ex.streamSelect(ctx, q)
	}
	return nil, nil, fmt.Errorf("exec: unsupported query type %T", q)
}

// returnCols names the output columns of a RETURN/SELECT item list.
func returnCols(items []gql.ReturnItem) []string {
	cols := make([]string, len(items))
	for i, item := range items {
		cols[i] = item.Name()
	}
	return cols
}

// streamMatch runs a MATCH: it streams the projected rows or, when the
// RETURN aggregates, the groups of its implicit grouping. The frozen
// snapshot is resolved up front, so a vertex property declared after
// vertices of its type exist fails the query with FreezeChecked's error.
func (ex *Executor) streamMatch(ctx context.Context, q *gql.MatchQuery) ([]string, iter.Seq2[Row, error], error) {
	plan, err := compileGroups(q.Return, nil)
	if err != nil {
		return nil, nil, err
	}
	f, err := ex.G.FreezeChecked()
	if err != nil {
		return nil, nil, err
	}
	var fo *fold
	if plan != nil {
		fo = &fold{plan: plan, stage: "aggregate"}
	}
	return returnCols(q.Return), ex.matchBody(ctx, q, f, fo), nil
}

// matchBody is the one MATCH driver: it enumerates q's matches over f
// and yields either each match's projected RETURN row (fo nil) or, once
// the match completes, the groups of the fold fo that every match feeds
// (aggregation is blocking). When the rows are consumed, the first
// node's candidates are resolved once and the worker count picks the
// schedule: one worker walks them inline on the consuming goroutine,
// with no goroutine, chunk or row buffer, feeding one folder; more run
// the chunked core (parallel.go), one folder per chunk merged in
// partition order. Both run matcher.matchCands, and the chunked merge
// reproduces the inline order.
func (ex *Executor) matchBody(ctx context.Context, q *gql.MatchQuery, f *graph.Frozen, fo *fold) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		matchStart := time.Now()
		ids, n, ok := firstNodeCandidates(ex.G, q.Patterns)
		if pf := ex.columnPrefilter(q, f); pf != nil {
			// One flat column pass drops candidates whose leftmost WHERE
			// conjunct is cleanly false before the matcher descends;
			// survivors still evaluate the full WHERE (idempotent). The
			// survivors keep their order, so every schedule enumerates
			// the same matches in the same order.
			ids = pf.filter(ids, ex.Metrics)
			n = len(ids)
		}
		workers := max(1, min(ex.effectiveWorkers(), n))
		if ex.Prof != nil {
			ex.Prof.Workers = workers
		}
		if workers > 1 {
			ex.matchChunked(ctx, q, f, fo, ids, n, workers, matchStart, yield)
			return
		}
		fd := fo.newFolder()
		m := ex.newMatcher(ctx, q, f)
		defer m.flushPropReads(ex.Metrics)
		rows := 0
		m.yield = func() error {
			// Count, then check the limit, then evaluate: an evaluation
			// error beyond MaxRows surfaces as ErrRowLimit.
			rows++
			if ex.MaxRows > 0 && rows > ex.MaxRows {
				return ErrRowLimit
			}
			if fd != nil {
				return fd.feed(m)
			}
			row, err := project(q.Return, m)
			if err != nil {
				return err
			}
			if !yield(row, nil) {
				return errStreamStop
			}
			return nil
		}
		var err error
		if ok {
			err = m.matchCands(q.Patterns, ids, 0, n)
		} else {
			// No first node to enumerate: zero patterns match once, an
			// empty pattern reports its error.
			err = m.startPattern(q.Patterns, 0)
		}
		if err != nil {
			if err != errStreamStop {
				yield(nil, err)
			}
			return
		}
		if ex.Prof != nil {
			ex.Prof.add("match", int64(rows), 0, time.Since(matchStart))
		}
		ex.finishFold(fd, yield)
	}
}

// hasAggregates reports whether any item calls an aggregate.
func hasAggregates(items []gql.ReturnItem) bool {
	return slices.ContainsFunc(items, func(it gql.ReturnItem) bool { return gql.HasAggregate(it.Expr) })
}

// project evaluates the RETURN items over the current match into a row
// whose values outlive it.
func project(items []gql.ReturnItem, sc scope) (Row, error) {
	row := make(Row, len(items))
	for i, item := range items {
		v, err := evalExpr(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		row[i] = exportValue(v)
	}
	return row, nil
}

// finishFold finishes a completed match's fold, if any, and streams its
// groups — the tail both match schedules share. A SELECT error kept
// while the match ran surfaces here, now that the match itself
// succeeded.
func (ex *Executor) finishFold(fd *folder, yield func(Row, error) bool) {
	if fd == nil {
		return
	}
	if fd.tailErr != nil {
		yield(nil, fd.tailErr)
		return
	}
	start := time.Now()
	out, err := fd.agg.finish()
	if err != nil {
		yield(nil, err)
		return
	}
	if ex.Prof != nil {
		ex.Prof.add(fd.stage, int64(len(out)), 0, time.Since(start))
	}
	for _, row := range out {
		if !yield(row, nil) {
			return
		}
	}
}

// streamSelect evaluates the subquery, then filter/group/order/limit.
// The relational tail is evaluated in full before the first row is
// yielded — ORDER BY and grouping are blocking operators anyway — but
// the subquery itself runs through the cancellable core, so a SELECT
// over a runaway MATCH still stops when the context does.
func (ex *Executor) streamSelect(ctx context.Context, q *gql.SelectQuery) ([]string, iter.Seq2[Row, error], error) {
	cols := returnCols(q.Items)
	body := func(yield func(Row, error) bool) {
		out, err := ex.evalSelect(ctx, q)
		if err != nil {
			yield(nil, err)
			return
		}
		for _, row := range out.Rows {
			if !yield(row, nil) {
				return
			}
		}
	}
	return cols, body, nil
}

// evalSelect is the relational tail shared by both execution forms.
// It buffers only its own output: a SELECT that aggregates over a MATCH
// with no aggregates of its own runs inside the match (fusedSelect), and
// any other reads its subquery's rows as they arrive (streamTail). The
// subquery reaches the execution core directly (not through
// ExecuteContext) so a metrics-instrumented executor observes the
// SELECT as one execution, not two.
//
// Either way the SELECT's errors — its WHERE, keys, items and
// accumulators — cannot mask an error of the subquery it reads: on the
// first one the tail stops and the subquery runs on, and the subquery's
// error (row limit, cancellation, evaluation) is returned if one comes.
// The one exception is compileGroups' refusal of an item that reads a
// variable neither grouped nor aggregated: it is made from the
// statement alone, before the subquery runs, so it comes first.
func (ex *Executor) evalSelect(ctx context.Context, q *gql.SelectQuery) (*Result, error) {
	out := &Result{Cols: returnCols(q.Items)}
	var err error
	if m, ok := q.From.(*gql.MatchQuery); ok && (len(q.GroupBy) > 0 || hasAggregates(q.Items)) && !hasAggregates(m.Return) {
		out.Rows, err = ex.fusedSelect(ctx, q, m)
	} else {
		out.Rows, err = ex.streamTail(ctx, q)
	}
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		orderStart := time.Now()
		if err := orderRows(out, q.OrderBy); err != nil {
			return nil, err
		}
		if ex.Prof != nil {
			ex.Prof.add("select: order by", int64(len(out.Rows)), 0, time.Since(orderStart))
		}
	}
	if q.Limit >= 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
		if ex.Prof != nil {
			ex.Prof.add("select: limit", int64(len(out.Rows)), 0, 0)
		}
	}
	return out, nil
}

// fusedSelect runs q's aggregation as the fold of m's driver: every
// match evaluates m's RETURN into a scratch row that q's WHERE and
// aggregator read, so no row of m is ever built.
func (ex *Executor) fusedSelect(ctx context.Context, q *gql.SelectQuery, m *gql.MatchQuery) ([]Row, error) {
	plan, err := compileGroups(q.Items, q.GroupBy)
	if err != nil {
		return nil, err
	}
	f, err := ex.G.FreezeChecked()
	if err != nil {
		return nil, err
	}
	fo := &fold{
		plan:  plan,
		ret:   m.Return,
		cols:  returnCols(m.Return),
		where: q.Where,
		stage: "select: aggregate",
	}
	var rows []Row
	for row, err := range ex.matchBody(ctx, m, f, fo) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// streamTail filters and projects or aggregates the subquery's rows as
// they arrive, reading each through one positional scope. Its stage
// times only what runs after the subquery ends (finishing the groups);
// the per-row work runs inside the subquery's stages.
func (ex *Executor) streamTail(ctx context.Context, q *gql.SelectQuery) ([]Row, error) {
	plan, err := compileGroups(q.Items, q.GroupBy)
	if err != nil {
		return nil, err
	}
	subCols, subBody, err := ex.stream(ctx, q.From)
	if err != nil {
		return nil, err
	}
	agg := plan.newAggregator()
	sc := &rowScope{cols: subCols}
	var rows []Row
	var tailErr error
	for row, err := range subBody {
		if err != nil {
			return nil, err
		}
		if tailErr != nil {
			continue
		}
		sc.row = row
		if agg != nil {
			tailErr = filterFeed(q.Where, agg, sc)
		} else {
			rows, tailErr = filterProject(q, sc, rows)
		}
	}
	if tailErr != nil {
		return nil, tailErr
	}
	start := time.Now()
	stage := "select: filter/project"
	if agg != nil {
		stage = "select: aggregate"
		if rows, err = agg.finish(); err != nil {
			return nil, err
		}
	}
	if ex.Prof != nil {
		ex.Prof.add(stage, int64(len(rows)), 0, time.Since(start))
	}
	return rows, nil
}

// keeps reports whether a SELECT's WHERE, if any, keeps the row in sc.
func keeps(where gql.Expr, sc scope) (bool, error) {
	if where == nil {
		return true, nil
	}
	return evalBool(where, sc)
}

// filterFeed feeds the row in sc to agg if a SELECT's WHERE keeps it.
func filterFeed(where gql.Expr, agg *aggregator, sc scope) error {
	keep, err := keeps(where, sc)
	if !keep || err != nil {
		return err
	}
	return agg.feed(sc)
}

// filterProject appends the projection of the row in sc to rows if q's
// WHERE keeps it.
func filterProject(q *gql.SelectQuery, sc scope, rows []Row) ([]Row, error) {
	keep, err := keeps(q.Where, sc)
	if !keep || err != nil {
		return rows, err
	}
	row, err := project(q.Items, sc)
	if err != nil {
		return rows, err
	}
	return append(rows, row), nil
}

func orderRows(r *Result, order []gql.OrderItem) error {
	sc := &rowScope{cols: r.Cols}
	keys := make([][]Value, len(r.Rows))
	for ri, row := range r.Rows {
		sc.row = row
		ks := make([]Value, len(order))
		for oi, o := range order {
			v, err := evalExpr(o.Expr, sc)
			if err != nil {
				return err
			}
			ks[oi] = v
		}
		keys[ri] = ks
	}
	idx := make([]int, len(r.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for oi, o := range order {
			c, ok := compareValues(keys[idx[a]][oi], keys[idx[b]][oi])
			if !ok {
				continue // incomparable keys tie; later keys break it
			}
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	sorted := make([]Row, len(r.Rows))
	for i, j := range idx {
		sorted[i] = r.Rows[j]
	}
	r.Rows = sorted
	return nil
}
