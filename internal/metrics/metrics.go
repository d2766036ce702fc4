// Package metrics is Kaskade's observability core: allocation-free
// atomic counters and a lock-free latency histogram that the execution
// paths bump on every query, aggregated into immutable Snapshots the
// monitoring surfaces read.
//
// A Registry is the per-System metric set. The hot-path write API is
// three atomic operations per query (count, rows, one histogram
// bucket), so instrumentation is cheap enough to stay always-on; the
// prepared-query benchmark guard in CI pins the overhead under 5%.
// Readers call Snapshot, which copies every counter with atomic loads —
// no locks are shared with writers, so concurrent queries never stall
// behind a monitoring scrape.
//
// Counter semantics (pinned by tests in internal/core):
//
//   - Queries/Rows/Latency count executions that ran — EXPLAIN and
//     EXPLAIN without ANALYZE plan only and bump nothing.
//   - RewriteHits/RewriteMisses count §V-C rewrite decisions on the
//     execution path: a prepared query re-plans once per catalog epoch,
//     so repeated executions of a cached plan count one decision, not
//     one per execution. Per-view hit counters (workload.Catalog) move
//     in lockstep.
//   - QueryErrors counts executions that terminated with an error
//     (including cancellation), plus statements that failed to parse or
//     plan.
//
// Time-series monitoring (the `kaskade top` dashboard) is built from
// periodic Snapshots pushed into a Ring (ring.go); rates and interval
// quantiles come from subtracting consecutive snapshots, which the
// Hist.Sub/Quantile helpers support directly.
package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic up/down gauge — a level, not a rate (in-flight
// admitted requests, live server sessions).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the histogram resolution: bucket i holds observations
// d with 2^i ns <= d < 2^(i+1) ns (bucket 0 additionally holds sub-ns
// zeros), so the range spans 1ns to ~4.6h in power-of-two steps —
// coarse at the top, fine where query latencies live.
const histBuckets = 44

// Histogram is a lock-free duration histogram: power-of-two buckets,
// each an atomic counter, plus atomic count and sum. Observe is three
// atomic adds; Snapshot is a consistent-enough copy (buckets are read
// one atomic load at a time, so a snapshot racing observations may be
// off by the in-flight observation — fine for monitoring).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0 for 0ns, i+1 for 2^i <= ns < 2^(i+1)
	if b > 0 {
		b--
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
	h.buckets[bucketOf(d)].Add(1)
}

// Snapshot copies the histogram into an immutable Hist.
func (h *Histogram) Snapshot() Hist {
	var s Hist
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Hist is an immutable histogram snapshot. Subtracting two cumulative
// snapshots (Sub) yields the histogram of the interval between them —
// the basis of windowed quantiles in the monitoring dashboard.
type Hist struct {
	Count   int64
	SumNS   int64
	Buckets [histBuckets]int64
}

// Sub returns the interval histogram h - prev (both cumulative).
func (h Hist) Sub(prev Hist) Hist {
	out := Hist{Count: h.Count - prev.Count, SumNS: h.SumNS - prev.SumNS}
	for i := range h.Buckets {
		out.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// Mean returns the mean observed duration (0 when empty).
func (h Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the q-th observation — a conservative (over-)
// estimate with power-of-two resolution. Returns 0 when empty.
func (h Hist) Quantile(q float64) time.Duration {
	if h.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.Count-1)) + 1
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			return time.Duration(int64(1) << uint(i+1)) // bucket upper bound
		}
	}
	return time.Duration(h.SumNS) // unreachable unless buckets race; cap at sum
}

// QueryStat is the cumulative record of one query text — the data
// behind top-N-queries-by-time in the dashboard.
type QueryStat struct {
	Query string
	Count int64
	Total time.Duration
	Rows  int64
}

// Mean returns the mean execution time.
func (s QueryStat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// maxQueryStats caps the per-query-text map so a workload of unbounded
// distinct texts (ad-hoc generated queries) cannot grow the registry
// without limit; texts beyond the cap are counted in the aggregate
// counters but not tracked individually.
const maxQueryStats = 512

// Registry is one System's metric set. The zero value is NOT ready;
// use NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	Queries          Counter   // executions that ran (success or error)
	QueryErrors      Counter   // executions that errored + parse/plan failures
	Rows             Counter   // result rows returned across all executions
	RewriteHits      Counter   // §V-C rewrite decisions that landed on a view
	RewriteMisses    Counter   // rewrite decisions that stayed on the base graph
	Materializations Counter   // views landed in the catalog
	Latency          Histogram // per-execution wall time

	// Columnar-storage usage: vertex property reads served from the
	// graph's property columns (every read of a declared property, plus
	// prefilter scans) vs reads of undeclared properties from the
	// per-vertex property map. Edge property reads count in neither.
	ColumnScans      Counter
	PropMapFallbacks Counter

	// Service-boundary metrics, bumped by internal/server (the kaskaded
	// daemon); they stay zero for purely in-process use.
	Admitted    Counter // requests admitted past the in-flight limiter
	Rejected    Counter // requests rejected with 429 at admission
	TimedOut    Counter // admitted executions that hit their deadline
	CacheHits   Counter // response-cache hits served without executing
	CacheMisses Counter // cacheable requests that had to execute
	InFlight    Gauge   // admitted requests currently executing
	Sessions    Gauge   // live server sessions

	mu      sync.Mutex
	byQuery map[string]*QueryStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byQuery: make(map[string]*QueryStat)}
}

// ObserveQuery records one finished execution: the aggregate counters,
// the latency histogram, and (when label is non-empty and the per-query
// map has room) the per-query cumulative stats. errored marks an
// execution that terminated with an error; its rows (possibly partial)
// still count.
func (r *Registry) ObserveQuery(label string, d time.Duration, rows int64, errored bool) {
	r.Queries.Inc()
	r.Rows.Add(rows)
	r.Latency.Observe(d)
	if errored {
		r.QueryErrors.Inc()
	}
	if label == "" {
		return
	}
	r.mu.Lock()
	st := r.byQuery[label]
	if st == nil {
		if len(r.byQuery) >= maxQueryStats {
			r.mu.Unlock()
			return
		}
		st = &QueryStat{Query: label}
		r.byQuery[label] = st
	}
	st.Count++
	st.Total += d
	st.Rows += rows
	r.mu.Unlock()
}

// TopQueries returns up to n per-query records ordered by cumulative
// execution time, descending (ties broken by query text for
// determinism).
func (r *Registry) TopQueries(n int) []QueryStat {
	r.mu.Lock()
	out := make([]QueryStat, 0, len(r.byQuery))
	for _, st := range r.byQuery {
		out = append(out, *st)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Query < out[j].Query
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ViewCount is one materialized view's usage in a Snapshot.
type ViewCount struct {
	Name string
	Hits int64
}

// Snapshot is a point-in-time copy of every metric. Registry.Snapshot
// fills the registry-owned fields; core.System.MetricsSnapshot
// additionally fills the process-wide fields (FreezeEvents,
// WorkersActive/WorkersPeak) and the per-view usage list.
type Snapshot struct {
	Queries          int64
	QueryErrors      int64
	Rows             int64
	RewriteHits      int64
	RewriteMisses    int64
	Materializations int64
	Latency          Hist

	// Service-boundary metrics (internal/server): admission-control
	// outcomes, response-cache effectiveness, and the in-flight/session
	// levels at snapshot time.
	Admitted    int64
	Rejected    int64
	TimedOut    int64
	CacheHits   int64
	CacheMisses int64
	InFlight    int64
	Sessions    int64

	// Columnar-storage usage (see Registry.ColumnScans) and footprint:
	// ColumnCount/ColumnBytes describe the graph's property
	// columns at snapshot time (filled by core.System.MetricsSnapshot).
	ColumnScans      int64
	PropMapFallbacks int64
	ColumnCount      int64
	ColumnBytes      int64

	// FreezeEvents is the process-wide count of CSR index builds
	// (graph.CSRBuilds — freezes are memoized per graph, so this counts
	// distinct index constructions, not Freeze calls).
	FreezeEvents int64
	// Delta-overlay storage state (filled by core.System.MetricsSnapshot,
	// mirroring the columnar counters above): the served graph's current
	// tail size, plus the process-wide overlay-resolved read count,
	// compaction count, and most recent compaction duration
	// (graph.OverlayReads / CompactionsTotal / LastCompactionDuration).
	DeltaTailVertices int64
	DeltaTailEdges    int64
	OverlayReads      int64
	Compactions       int64
	LastCompaction    time.Duration
	// WorkersActive/WorkersPeak are the process-wide par worker-pool
	// occupancy: currently running workers and the high-water mark.
	WorkersActive int64
	WorkersPeak   int64
	// Views lists per-view rewrite-hit counters at snapshot time, in
	// catalog creation order.
	Views []ViewCount
}

// Snapshot copies the registry's counters.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		Queries:          r.Queries.Load(),
		QueryErrors:      r.QueryErrors.Load(),
		Rows:             r.Rows.Load(),
		RewriteHits:      r.RewriteHits.Load(),
		RewriteMisses:    r.RewriteMisses.Load(),
		Materializations: r.Materializations.Load(),
		Latency:          r.Latency.Snapshot(),
		ColumnScans:      r.ColumnScans.Load(),
		PropMapFallbacks: r.PropMapFallbacks.Load(),
		Admitted:         r.Admitted.Load(),
		Rejected:         r.Rejected.Load(),
		TimedOut:         r.TimedOut.Load(),
		CacheHits:        r.CacheHits.Load(),
		CacheMisses:      r.CacheMisses.Load(),
		InFlight:         r.InFlight.Load(),
		Sessions:         r.Sessions.Load(),
	}
}

// HitRatio returns hits/(hits+misses), or 0 when no rewrite decision
// has been made.
func (s Snapshot) HitRatio() float64 {
	total := s.RewriteHits + s.RewriteMisses
	if total == 0 {
		return 0
	}
	return float64(s.RewriteHits) / float64(total)
}
