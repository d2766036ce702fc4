package exec

import (
	"context"
	"errors"
	"fmt"
	"iter"
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

// streamMatch is the one MATCH driver: it enumerates pattern matches
// and streams the projected rows, with Cypher-style implicit grouping
// when aggregates appear (aggregation is blocking: grouped rows stream
// only after the match completes). The frozen snapshot is resolved up
// front, so a declared property holding the wrong kind fails the query
// with FreezeChecked's error. When the rows are consumed, the first
// node's candidates are resolved once and the worker count picks the
// schedule: one worker walks them inline on the consuming goroutine,
// with no goroutine, chunk or row buffer; more run the chunked core
// (parallel.go). Both run matcher.matchCands, and the chunked merge
// reproduces the inline order.
func (ex *Executor) streamMatch(ctx context.Context, q *gql.MatchQuery) ([]string, iter.Seq2[Row, error], error) {
	f, err := ex.G.FreezeChecked()
	if err != nil {
		return nil, nil, err
	}
	body := func(yield func(Row, error) bool) {
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
			ex.matchChunked(ctx, q, f, ids, n, workers, matchStart, yield)
			return
		}
		agg := newAggregator(q.Return, nil)
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
			if agg != nil {
				return agg.feed(m)
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
		ex.finishAgg(agg, yield)
	}
	return returnCols(q.Return), body, nil
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

// finishAgg finishes a completed match's aggregation, if any, and
// streams its groups — the tail both match schedules share.
func (ex *Executor) finishAgg(agg *aggregator, yield func(Row, error) bool) {
	if agg == nil {
		return
	}
	start := time.Now()
	out, err := agg.finish()
	if err != nil {
		yield(nil, err)
		return
	}
	if ex.Prof != nil {
		ex.Prof.add("aggregate", int64(len(out)), 0, time.Since(start))
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

// evalSelect is the buffered relational tail shared by both execution
// forms. The subquery reaches the execution core directly (not through
// ExecuteContext) so a metrics-instrumented executor observes the
// SELECT as one execution, not two.
func (ex *Executor) evalSelect(ctx context.Context, q *gql.SelectQuery) (*Result, error) {
	subCols, subBody, err := ex.stream(ctx, q.From)
	if err != nil {
		return nil, err
	}
	sub := &Result{Cols: subCols}
	for row, err := range subBody {
		if err != nil {
			return nil, err
		}
		sub.Rows = append(sub.Rows, row)
	}
	tailStart := time.Now()
	out := &Result{Cols: returnCols(q.Items)}

	agg := newAggregator(q.Items, q.GroupBy)
	sc := make(mapScope, len(sub.Cols))
	for _, row := range sub.Rows {
		for i, c := range sub.Cols {
			sc[c] = row[i]
		}
		if q.Where != nil {
			ok, err := evalBool(q.Where, sc)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if agg != nil {
			if err := agg.feed(sc); err != nil {
				return nil, err
			}
			continue
		}
		outRow := make(Row, len(q.Items))
		for i, item := range q.Items {
			v, err := evalExpr(item.Expr, sc)
			if err != nil {
				return nil, err
			}
			outRow[i] = v
		}
		out.Rows = append(out.Rows, outRow)
	}
	if agg != nil {
		out.Rows, err = agg.finish()
		if err != nil {
			return nil, err
		}
	}
	if ex.Prof != nil {
		stage := "select: filter/project"
		if agg != nil {
			stage = "select: aggregate"
		}
		ex.Prof.add(stage, int64(len(out.Rows)), 0, time.Since(tailStart))
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

func orderRows(r *Result, order []gql.OrderItem) error {
	sc := make(mapScope, len(r.Cols))
	keys := make([][]Value, len(r.Rows))
	for ri, row := range r.Rows {
		for i, c := range r.Cols {
			sc[c] = row[i]
		}
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
