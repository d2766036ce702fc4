package main

import (
	"context"
	"fmt"
	"time"

	"kaskade"
	"kaskade/internal/exec"
	"kaskade/internal/workload"
)

// summarizedSystem is the set-up lineage_view, lineage_raw and
// service_http share: summarized prov under a System whose views were
// chosen by SelectViews over the lineage statements and adopted.
type summarizedSystem struct {
	raw, base *kaskade.Graph
	sys       *kaskade.System
	selectDur time.Duration
	adoptDur  time.Duration
}

func newSummarizedSystem(cfg config, parallelism int) (*summarizedSystem, error) {
	raw, err := genRaw(cfg.scale)
	if err != nil {
		return nil, err
	}
	base, err := summarizeProv(raw)
	if err != nil {
		return nil, err
	}
	s := &summarizedSystem{raw: raw, base: base, sys: kaskade.New(base)}
	s.sys.Parallelism = parallelism
	s.selectDur, s.adoptDur, err = buildViews(s.sys, lineageTexts)
	return s, err
}

// buildViews takes a System from frozen base graph to usable views: the
// paper's selection + creation time.
func buildViews(sys *kaskade.System, queries []string) (selectDur, adoptDur time.Duration, err error) {
	start := time.Now()
	sel, err := sys.SelectViews(queries, viewBudget)
	if err != nil {
		return 0, 0, err
	}
	selectDur = time.Since(start)
	start = time.Now()
	err = sys.AdoptSelection(sel)
	return selectDur, time.Since(start), err
}

func (s *summarizedSystem) env(drv driver) *env {
	// The closure must not hold s: s.raw is dropped before the heap is
	// measured.
	base, parallelism := s.base, s.sys.Parallelism
	return &env{
		drv: drv, raw: s.raw,
		rebuild: func() (time.Duration, error) {
			fresh := kaskade.New(base)
			fresh.Parallelism = parallelism
			sel, adopt, err := buildViews(fresh, lineageTexts)
			return sel + adopt, err
		},
		viewsBuild: s.selectDur + s.adoptDur, selectDur: s.selectDur, adoptDur: s.adoptDur,
		viewEdges: s.sys.Catalog().TotalEdges(), baseEdges: s.base.NumEdges(),
	}
}

// Lineage op kinds and their weights in one 12-op cycle. The projection
// holds the middle of the latency distribution (p50 sits inside its
// class whichever way the run is cut) and blast radius is one op in
// twelve, so p95 sits inside the blast-radius class.
const (
	kindBlast = iota
	kindProj
	kindGroup
	kindDescendants
	kindPathLengths
)

var (
	lineageWeights = []int{kindBlast: 1, kindProj: 6, kindGroup: 1, kindDescendants: 2, kindPathLengths: 2}
	lineageNames   = append(append([]string(nil), stmtKeys...), "q3_descendants", "q4_path_lengths")
)

// runnerSample is how many Job sources Q3 and Q4 traverse from.
const runnerSample = 50

type lineageDriver struct {
	views    bool
	sys      *kaskade.System
	schedule []int
	stmts    []*kaskade.PreparedQuery // by kind, gql kinds only
	want     []answer                 // by kind, gql kinds only
	runner   *workload.Runner
	wantQ    map[workload.QueryID]int64
	h        *hasher

	pipe  pipeline
	plans []*workload.Plan // traced pass: planned once per statement, as Prepare does
}

func setupLineage(ctx context.Context, cfg config, views bool) (*env, error) {
	s, err := newSummarizedSystem(cfg, 0)
	if err != nil {
		return nil, err
	}
	d := &lineageDriver{
		views:    views,
		sys:      s.sys,
		schedule: weightedSchedule(clientRNG(cfg.seed, 0), lineageWeights),
		h:        newHasher(),
		pipe:     newPipeline(s.sys, !views),
		plans:    make([]*workload.Plan, len(lineageTexts)),
		wantQ:    map[workload.QueryID]int64{},
	}
	var opts []kaskade.QueryOption
	if !views {
		opts = append(opts, kaskade.WithoutViews())
	}
	for _, text := range lineageTexts {
		stmt, err := s.sys.Prepare(text, opts...)
		if err != nil {
			return nil, err
		}
		plan, err := stmt.Plan()
		if err != nil {
			return nil, err
		}
		if views && plan.ViewName == "" {
			return nil, fmt.Errorf("no adopted view serves %q", text)
		}
		raw, err := s.sys.QueryRaw(text)
		if err != nil {
			return nil, err
		}
		want := d.h.result(raw)
		if cfg.corrupt {
			want.sum++
		}
		d.stmts = append(d.stmts, stmt)
		d.want = append(d.want, want)
	}

	if views {
		m, ok := s.sys.Catalog().Get(connectorDef.Name())
		if !ok {
			return nil, fmt.Errorf("SelectViews did not choose %s", connectorDef.Name())
		}
		d.runner = workload.ConnectorRunner(m.Graph, "Job", connectorDef.K, runnerSample)
	} else {
		d.runner = workload.BaseRunner(s.base, "Job", runnerSample)
	}
	// The kernels' answers differ between the base graph and the
	// connector (a 2-hop neighbourhood over the view skips the files), so
	// each side is checked against its own first run.
	for _, id := range []workload.QueryID{workload.Q3Descendants, workload.Q4PathLengths} {
		v, err := d.runner.RunContext(ctx, id)
		if err != nil {
			return nil, err
		}
		if cfg.corrupt {
			v++
		}
		d.wantQ[id] = v
	}
	e := s.env(d)
	e.rawPlans = !views
	return e, nil
}

func (d *lineageDriver) clients() int { return 1 }
func (d *lineageDriver) close()       {}

func (d *lineageDriver) kind(i int) int { return d.schedule[i%len(d.schedule)] }

func (d *lineageDriver) describe(_, i int) string { return lineageNames[d.kind(i)] }

func check(got, want answer) error {
	if got != want {
		return fmt.Errorf("answer is %v, want %v", got, want)
	}
	return nil
}

func (d *lineageDriver) kernel(ctx context.Context, kind int) error {
	id := workload.Q3Descendants
	if kind == kindPathLengths {
		id = workload.Q4PathLengths
	}
	got, err := d.runner.RunContext(ctx, id)
	if err != nil {
		return err
	}
	if got != d.wantQ[id] {
		return fmt.Errorf("%s is %d, want %d", id, got, d.wantQ[id])
	}
	return nil
}

func (d *lineageDriver) op(ctx context.Context, _, i int) error {
	kind := d.kind(i)
	switch kind {
	case kindBlast, kindGroup:
		res, err := d.stmts[kind].ExecContext(ctx)
		if err != nil {
			return err
		}
		return check(d.h.result(res), d.want[kind])
	case kindProj:
		rows, err := d.stmts[kind].QueryContext(ctx)
		if err != nil {
			return err
		}
		var got answer
		for rows.Next() {
			d.h.add(&got, rows.Row())
		}
		err = rows.Err()
		rows.Close()
		if err != nil {
			return err
		}
		return check(got, d.want[kind])
	default:
		return d.kernel(ctx, kind)
	}
}

func (d *lineageDriver) tracedOp(ctx context.Context, tr *tracer, _, i int) error {
	kind, op := d.kind(i), int64(i)
	root := tr.begin(op, -1, rootSpan)
	defer tr.end(root)
	if kind >= len(lineageTexts) {
		s := tr.begin(op, root, "algo."+lineageNames[kind])
		defer tr.end(s)
		return d.kernel(ctx, kind)
	}
	text := lineageTexts[kind]
	if d.plans[kind] == nil {
		q, err := d.pipe.parse(tr, op, root, text)
		if err != nil {
			return err
		}
		if d.plans[kind], err = d.pipe.plan(tr, op, root, q); err != nil {
			return err
		}
	}
	var got answer
	if kind == kindProj {
		err := d.pipe.stream(ctx, tr, op, root, d.plans[kind], text, func(r exec.Row) { d.h.add(&got, r) })
		if err != nil {
			return err
		}
	} else {
		res, err := d.pipe.execute(ctx, tr, op, root, d.plans[kind], text)
		if err != nil {
			return err
		}
		s := tr.begin(op, root, "bench.verify")
		got = d.h.result(res)
		tr.end(s)
	}
	return check(got, d.want[kind])
}

func (d *lineageDriver) layerMetrics(_ context.Context, _ tracedRun, out map[string]float64) error {
	d.pipe.layerMetrics(out)
	return nil
}
