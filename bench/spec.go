package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their direction and regression bound, and per-layer metrics. The same
// tables are written out as BENCHMARK.json at the repository root;
// bench_test.go fails when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlLineageView = "lineage_view"
	wlLineageRaw  = "lineage_raw"
	wlAdhoc       = "adhoc_planning"
	wlHTTP        = "service_http"
	wlMutate      = "mutate_maintain"
)

var workloadSpecs = []workloadSpec{
	{wlLineageView, "prepared lineage statements and Q3/Q4 kernels over adopted views: exec match/aggregate and algo do the work"},
	{wlLineageRaw, "the same statements and sequence with views bypassed: the twin a view-side change must leave flat"},
	{wlAdhoc, "512 short ad hoc texts on the unsummarized graph: parse, enumerate, cost and rewrite dominate each op"},
	{wlHTTP, "the daemon handler over loopback with sessions: HTTP, admission, prepared-cache eviction and JSON carry a share"},
	{wlMutate, "mutation batches through the maintained connector beside reads: delta tail, maintenance and compaction"},
}

// End-to-end metric names.
const (
	mSetup      = "setup_s"
	mViewsBuild = "views_build_ms"
	mThroughput = "throughput_ops_s"
	mP50        = "latency_p50_ms"
	mP95        = "latency_p95_ms"
	mOKRatio    = "ok_ratio"
	mHeap       = "heap_live_mb"
)

var endToEndSpecs = []metricSpec{
	{mSetup, "s", "lower", 0.25},
	{mViewsBuild, "ms", "lower", 0.25},
	{mThroughput, "ops/s", "higher", 0.20},
	{mP50, "ms", "lower", 0.20},
	{mP95, "ms", "lower", 0.25},
	{mOKRatio, "ratio", "higher", 0.001},
	{mHeap, "MB", "lower", 0.10},
}

// stmtKeys name the three prepared lineage statements wherever a
// per-layer metric is reported per statement.
var stmtKeys = []string{"blast", "proj", "group"}

var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	perStmt := func(prefix, unit, better string) []metricSpec {
		var out []metricSpec
		for _, k := range stmtKeys {
			out = append(out, metricSpec{Name: prefix + "." + k, Unit: unit, Better: better})
		}
		return out
	}
	var s []metricSpec
	s = append(s,
		lower("gql.parse_us", "us"),
		lower("enum.enumerate_us", "us"),
		lower("enum.candidates", "count"),
		lower("cost.collect_ms", "ms"),
		lower("cost.evalcost_us", "us"),
		lower("workload.rewrite_us", "us"),
		higher("workload.rewrite_hit_ratio", "ratio"),
		lower("workload.select_ms", "ms"),
		lower("workload.adopt_ms", "ms"),
	)
	s = append(s, perStmt("workload.view_speedup", "ratio", "higher")...)
	s = append(s,
		lower("views.khop_materialize_ms", "ms"),
		lower("views.summarizer_materialize_ms", "ms"),
		lower("views.edges", "count"),
		lower("views.space_ratio", "ratio"),
		lower("views.maintain_add_edge_p50_us", "us"),
		lower("views.maintain_add_edge_p99_us", "us"),
		lower("views.maintain_paths_per_edge", "count"),
		lower("delta.edge_deltas_us", "us"),
		lower("core.prepare_us", "us"),
	)
	s = append(s, perStmt("core.exec_prepared_us", "us", "lower")...)
	s = append(s, perStmt("exec.execute_ms", "ms", "lower")...)
	s = append(s, perStmt("exec.match_ms", "ms", "lower")...)
	s = append(s, perStmt("exec.tail_ms", "ms", "lower")...)
	s = append(s,
		lower("exec.stage_match_ms", "ms"),
		lower("exec.stage_aggregate_ms", "ms"),
		lower("exec.rows_examined_per_result", "ratio"),
		lower("exec.first_row_us", "us"),
		lower("exec.stream_vs_buffered_ratio", "ratio"),
		higher("exec.workers_speedup", "ratio"),
		lower("algo.khop_us_per_source", "us"),
		lower("algo.pathlengths_us_per_source", "us"),
		lower("algo.label_prop_ms", "ms"),
		lower("graph.freeze_ms", "ms"),
		lower("graph.bytes_per_edge", "B"),
		lower("graph.adj_scan_ns_per_edge", "ns"),
		lower("graph.typed_scan_ns_per_edge", "ns"),
		lower("graph.column_scan_ns_per_vertex", "ns"),
		lower("graph.map_prop_ns_per_vertex", "ns"),
		lower("graph.adj_scan_overlay_ns_per_edge", "ns"),
		lower("graph.add_edge_us", "us"),
		lower("graph.compact_ms", "ms"),
		lower("graph.compactions", "count"),
		lower("graph.overlay_reads_per_op", "count"),
		lower("graph.csr_builds", "count"),
		lower("graph.tail_edges_max", "count"),
		lower("server.handler_us", "us"),
		lower("server.wire_us", "us"),
		lower("server.overhead_us.small", "us"),
		lower("server.overhead_us.large", "us"),
		higher("server.prepared_hit_ratio", "ratio"),
		lower("server.rejected_429", "count"),
		lower("server.cache_hit_us", "us"),
		lower("server.p99_ms", "ms"),
		lower("metrics.record_overhead_pct", "%"),
		lower("par.peak_workers", "count"),
		lower("runtime.allocs_per_op", "count"),
		lower("runtime.bytes_per_op", "B"),
		lower("runtime.gc_pause_total_ms", "ms"),
		lower("trace.overhead_pct", "%"),
		lower("trace.planning_share_pct", "%"),
		lower("trace.exec_share_pct", "%"),
		lower("trace.server_wire_share_pct", "%"),
		lower("trace.unattributed_pct", "%"),
	)
	return s
}

func endToEndSpec(name string) (metricSpec, bool) {
	for _, m := range endToEndSpecs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
