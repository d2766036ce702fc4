package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kaskade"
	"kaskade/internal/graph"
	"kaskade/internal/par"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	// seconds bounds the timed phase by the clock. opsScale > 0 instead
	// fixes it at opsScale × the workload's nominal op count, so the work
	// done and every count repeat exactly across runs and commits.
	seconds  float64
	opsScale float64
	trace    bool
	scale    float64
	outDir   string // spans are written here when set
	// corrupt makes set-up record wrong expected answers, so every
	// verification fails; the self-test uses it to show that a failed
	// check reaches the exit code.
	corrupt bool
}

// Set-up is repeated and its median reported, so one slow page-in or GC
// does not decide setup_s. views_build_ms is the median of the builds
// inside those set-ups or, where a build is cheap (env.rebuild), of at
// least viewBuilds further builds on fresh Systems.
const (
	setupReps  = 3
	viewBuilds = 9
	// A 10 ms build (mutate_maintain's) needs more than 9 samples for a
	// steady median: rebuilding goes on until it has also taken this
	// long in total, up to maxViewBuilds.
	viewBuildTime = 400 * time.Millisecond
	maxViewBuilds = 40
)

// warmupShare of the timed phase's length runs untimed first.
const warmupShare = 0.10

// nominalOps is each workload's timed op count at -ops 1: about 12 s on
// the 2-CPU reference host, except mutate_maintain, which is sized to
// cross five base-graph compactions and end on the same graph each time.
var nominalOps = map[string]int{
	wlLineageView: 1080,
	wlLineageRaw:  1080,
	wlAdhoc:       36000,
	wlHTTP:        24000,
	wlMutate:      4000,
}

// driver is one workload's closed loop: client c's i-th op is a pure
// function of the seed.
type driver interface {
	clients() int
	// op runs the op through the façade (or the daemon's handler) and
	// returns an error when it fails or its answer does not verify.
	op(ctx context.Context, c, i int) error
	// tracedOp runs the same op through the decomposed pipeline,
	// recording a root span and one span per call into a layer.
	tracedOp(ctx context.Context, tr *tracer, c, i int) error
	// describe names the op, for checking that sequences follow the seed.
	describe(c, i int) string
	// layerMetrics adds what the driver counted during a traced pass.
	layerMetrics(ctx context.Context, run tracedRun, out map[string]float64) error
	close()
}

// tracedRun is what a traced pass measured, for the drivers' own
// per-layer metrics.
type tracedRun struct {
	stats map[string]*selfStat // per span name
	p99MS float64              // over every timed op
}

// env is a set-up workload.
type env struct {
	drv driver
	// raw is the unsummarized graph, kept for the probes of a traced run
	// and dropped before the heap is measured otherwise.
	raw *kaskade.Graph
	// rawPlans makes the per-statement probes report the base-graph
	// plans, as the workload executes them, instead of the view plans.
	rawPlans   bool
	viewsBuild time.Duration
	// rebuild, when set, builds the views once more on a fresh System
	// over the same frozen graph and discards them; the runner uses it
	// to take views_build_ms from more builds than there are set-ups.
	rebuild   func() (time.Duration, error)
	selectDur time.Duration
	adoptDur  time.Duration
	viewEdges int
	baseEdges int
}

type setupFunc func(ctx context.Context, cfg config) (*env, error)

var setups = map[string]setupFunc{
	wlLineageView: func(ctx context.Context, cfg config) (*env, error) { return setupLineage(ctx, cfg, true) },
	wlLineageRaw:  func(ctx context.Context, cfg config) (*env, error) { return setupLineage(ctx, cfg, false) },
	wlAdhoc:       setupAdhoc,
	wlHTTP:        setupHTTP,
	wlMutate:      setupMutate,
}

// metricValue is one reported metric. Spread is the inter-quartile
// distance over the parts the value is the median of, as a share of the
// value. Slices holds those parts when they are the timed phase's
// slices, which -compare pairs up between two files.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int                    `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Errors holds the first few failures, for the operator.
	Errors []string `json:"errors,omitempty"`
}

// phaseEnd decides when a phase stops and how far along it is.
type phaseEnd struct {
	dur time.Duration // deadline mode
	ops int           // per client; > 0 selects fixed-count mode
}

// phaseOut is what one phase measured.
type phaseOut struct {
	samples []sample
	failed  int64
	errs    []string
	next    []int // each client's next op index
}

// runPhase runs every client's closed loop from its start index until
// end. Ops for which traced(frac) holds go through tracedOp.
func runPhase(ctx context.Context, drv driver, tr *tracer, start []int, end phaseEnd, traced func(frac float64) bool) phaseOut {
	n := drv.clients()
	outs := make([]phaseOut, n)
	all := phaseOut{next: make([]int, n)}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			i := start[c]
			for ; ctx.Err() == nil; i++ {
				var frac float64
				if end.ops > 0 {
					done := i - start[c]
					if done >= end.ops {
						break
					}
					frac = float64(done) / float64(end.ops)
				} else {
					el := time.Since(t0)
					if el >= end.dur {
						break
					}
					frac = float64(el) / float64(end.dur)
				}
				withSpans := tr != nil && traced(frac)
				var err error
				begin := time.Now()
				if withSpans {
					err = drv.tracedOp(ctx, tr, c, i)
				} else {
					err = drv.op(ctx, c, i)
				}
				done := time.Now()
				o.samples = append(o.samples, sample{lat: int64(done.Sub(begin)), end: int64(done.Sub(t0)), traced: withSpans})
				if err != nil {
					o.failed++
					if len(o.errs) < 3 {
						o.errs = append(o.errs, fmt.Sprintf("%s: %v", drv.describe(c, i), err))
					}
				}
			}
			all.next[c] = i
		}(c)
	}
	wg.Wait()
	for _, o := range outs {
		all.samples = append(all.samples, o.samples...)
		all.failed += o.failed
		all.errs = append(all.errs, o.errs...)
	}
	return all
}

// tracedSegments puts the untraced quarter of a traced pass in the
// middle, so a workload whose ops slow as its graph grows has traced ops
// on both sides of the untraced ones their p50 is compared with.
func tracedSegments(frac float64) bool { return frac < 0.375 || frac >= 0.625 }

// runWorkload sets the workload up, warms it, runs the timed phase, and
// reports every end-to-end metric (untraced) or every per-layer metric
// (traced).
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	setup, ok := setups[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var e *env
	var setupS, buildMS []float64
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.drv.close()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		e, err = setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: set-up of %s: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		buildMS = append(buildMS, ms(int64(e.viewsBuild)))
	}
	defer e.drv.close()
	if !cfg.trace {
		e.raw = nil
		if e.rebuild != nil {
			// Builds inside set-up ran beside a 400 MB unsummarized graph
			// and its garbage; the rebuilds are all in one regime.
			buildMS = buildMS[:0]
		}
		var spent time.Duration
		for e.rebuild != nil && len(buildMS) < maxViewBuilds && (len(buildMS) < viewBuilds || spent < viewBuildTime) {
			runtime.GC()
			d, err := e.rebuild()
			if err != nil {
				return nil, fmt.Errorf("bench: rebuilding the views of %s: %w", cfg.workload, err)
			}
			spent += d
			buildMS = append(buildMS, ms(int64(d)))
		}
	}

	timed := phaseEnd{dur: time.Duration(cfg.seconds * float64(time.Second))}
	warm := phaseEnd{dur: time.Duration(float64(timed.dur) * warmupShare)}
	if cfg.opsScale > 0 {
		per := int(cfg.opsScale*float64(nominalOps[cfg.workload])) / e.drv.clients()
		if per < numSlices {
			per = numSlices
		}
		timed = phaseEnd{ops: per}
		warm = phaseEnd{ops: 1 + int(float64(per)*warmupShare)}
	}

	never := func(float64) bool { return false }
	w := runPhase(ctx, e.drv, nil, make([]int, e.drv.clients()), warm, never)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	overlayBefore, compactBefore, csrBefore := graph.OverlayReads(), graph.CompactionsTotal(), graph.CSRBuilds()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t := runPhase(ctx, e.drv, tr, w.next, timed, tracedSegments)
	runtime.ReadMemStats(&after)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{
		Workload:  cfg.workload,
		Attempted: int64(len(w.samples) + len(t.samples)),
		Failed:    w.failed + t.failed,
		Samples:   len(t.samples),
		Metrics:   map[string]metricValue{},
		Errors:    append(w.errs, t.errs...),
	}
	ops := float64(len(t.samples))

	if !cfg.trace {
		tm := summarize(t.samples)
		put := func(name string, est estimate) {
			spec, _ := endToEndSpec(name)
			res.Metrics[name] = metricValue{Value: est.value, Unit: spec.Unit, Spread: est.spread, Slices: est.slices}
		}
		put(mSetup, estimate{value: median(setupS), spread: spread(setupS)})
		put(mViewsBuild, estimate{value: median(buildMS), spread: spread(buildMS)})
		put(mThroughput, tm.throughput)
		put(mP50, tm.p50)
		put(mP95, tm.p95)
		put(mOKRatio, estimate{value: float64(res.Attempted-res.Failed) / float64(res.Attempted)})
		put(mHeap, estimate{value: float64(before.HeapAlloc) / 1e6})
		return res, nil
	}

	layer := map[string]float64{}
	spans := tr.snapshot()
	stats := selfTimes(spans)
	layer["gql.parse_us"] = meanUS(stats, "gql.parse")
	layer["workload.rewrite_us"] = meanUS(stats, "workload.plan")
	layer["workload.select_ms"] = ms(int64(e.selectDur))
	layer["workload.adopt_ms"] = ms(int64(e.adoptDur))
	layer["views.edges"] = float64(e.viewEdges)
	if e.baseEdges > 0 {
		layer["views.space_ratio"] = float64(e.viewEdges) / float64(e.baseEdges)
	}
	layer["graph.compactions"] = float64(graph.CompactionsTotal() - compactBefore)
	layer["graph.csr_builds"] = float64(graph.CSRBuilds() - csrBefore)
	layer["graph.overlay_reads_per_op"] = float64(graph.OverlayReads()-overlayBefore) / ops
	layer["par.peak_workers"] = float64(par.PeakWorkers())
	layer["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	layer["runtime.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
	layer["runtime.gc_pause_total_ms"] = ms(int64(after.PauseTotalNs - before.PauseTotalNs))

	shares := layerShares(stats)
	layer["trace.planning_share_pct"] = 100 * (shares["gql"] + shares["workload"])
	layer["trace.exec_share_pct"] = 100 * (shares["exec"] + shares["algo"])
	layer["trace.server_wire_share_pct"] = 100 * (shares["server"] + shares["http"])
	layer["trace.unattributed_pct"] = 100 * shares[layerOf(rootSpan)]
	var withSpans, without []sample
	for _, s := range t.samples {
		if s.traced {
			withSpans = append(withSpans, s)
		} else {
			without = append(without, s)
		}
	}
	if base := summarize(without).p50.value; base > 0 {
		layer["trace.overhead_pct"] = 100 * (summarize(withSpans).p50.value/base - 1)
	}
	if err := e.drv.layerMetrics(ctx, tracedRun{stats: stats, p99MS: summarize(t.samples).p99}, layer); err != nil {
		return nil, err
	}

	probes, err := runProbes(ctx, e.raw, !e.rawPlans)
	if err != nil {
		return nil, fmt.Errorf("bench: probes: %w", err)
	}
	for k, v := range probes {
		layer[k] = v
	}
	for _, spec := range perLayerSpecs {
		res.Metrics[spec.Name] = metricValue{Value: layer[spec.Name], Unit: spec.Unit}
	}
	for k := range layer {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("bench: per-layer metric %q is measured but not declared in spec.go", k)
		}
	}
	if cfg.outDir != "" {
		if err := writeSpans(filepath.Join(cfg.outDir, "spans_"+cfg.workload+".json"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
