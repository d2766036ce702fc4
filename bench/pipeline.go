package main

import (
	"context"
	"strings"

	"kaskade"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// pipeline is the decomposed public pipeline the traced pass calls in
// place of the façade: gql.Parse → Catalog.PlanOnly → exec.Executor over
// the plan's graph, each call wrapped in a span. It does what
// System.QueryContext / PreparedQuery do internally (same executor
// fields, same metrics registry), so the traced and untraced passes do
// the same work and differ by the spans alone.
type pipeline struct {
	sys     *kaskade.System
	noViews bool // plan over the base graph, as WithoutViews does
	*pipeStats
}

func newPipeline(sys *kaskade.System, noViews bool) pipeline {
	return pipeline{sys: sys, noViews: noViews, pipeStats: &pipeStats{}}
}

// pipeStats is what a traced pass counted; pipelines over several
// Systems of one workload share one.
type pipeStats struct {
	// Planning decisions made through plan, and how many landed on a view.
	plans, viewPlans int64

	// Totals of the existing Executor.Prof hook over executed ops.
	profOps      int64
	matchNS      int64
	aggregateNS  int64
	matchRows    int64
	returnedRows int64
}

func (p *pipeline) parse(tr *tracer, op int64, parent int32, text string) (gql.Query, error) {
	s := tr.begin(op, parent, "gql.parse")
	q, err := gql.Parse(text)
	tr.end(s)
	return q, err
}

func (p *pipeline) plan(tr *tracer, op int64, parent int32, q gql.Query) (*workload.Plan, error) {
	s := tr.begin(op, parent, "workload.plan")
	defer tr.end(s)
	p.plans++
	if p.noViews {
		return &workload.Plan{Query: q, Graph: p.sys.Graph()}, nil
	}
	plan, err := p.sys.Catalog().PlanOnly(q)
	if err == nil && plan.ViewName != "" {
		p.viewPlans++
	}
	return plan, err
}

func (p *pipeline) executor(plan *workload.Plan, label string) *exec.Executor {
	return &exec.Executor{
		G:       plan.Graph,
		MaxRows: p.sys.MaxRows,
		Workers: p.sys.Parallelism,
		Metrics: p.sys.Metrics(),
		Label:   label,
		Prof:    &exec.Profile{},
	}
}

// execute runs plan into a buffered result, as ExecContext does.
func (p *pipeline) execute(ctx context.Context, tr *tracer, op int64, parent int32, plan *workload.Plan, label string) (*exec.Result, error) {
	ex := p.executor(plan, label)
	s := tr.begin(op, parent, "exec.execute")
	res, err := ex.ExecuteContext(ctx, plan.Query)
	tr.end(s)
	p.account(ex.Prof)
	return res, err
}

// stream runs plan through a cursor and hands every row to each, as
// PreparedQuery.QueryContext and a draining caller do.
func (p *pipeline) stream(ctx context.Context, tr *tracer, op int64, parent int32, plan *workload.Plan, label string, each func(exec.Row)) error {
	ex := p.executor(plan, label)
	s := tr.begin(op, parent, "exec.stream")
	rows, err := ex.Stream(ctx, plan.Query)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(op, parent, "exec.drain")
	for rows.Next() {
		each(rows.Row())
	}
	err = rows.Err()
	rows.Close()
	tr.end(s)
	p.account(ex.Prof)
	return err
}

func (p *pipeStats) account(prof *exec.Profile) {
	p.profOps++
	p.returnedRows += prof.Rows
	for _, st := range prof.Stages {
		switch {
		case st.Stage == "match":
			p.matchNS += int64(st.Dur)
			p.matchRows += st.Rows
		case strings.HasSuffix(st.Stage, "aggregate"):
			p.aggregateNS += int64(st.Dur)
		}
	}
}

// layerMetrics reports what was counted over a traced pass.
func (p *pipeStats) layerMetrics(out map[string]float64) {
	if p.plans > 0 {
		out["workload.rewrite_hit_ratio"] = float64(p.viewPlans) / float64(p.plans)
	}
	if p.profOps > 0 {
		out["exec.stage_match_ms"] = ms(p.matchNS) / float64(p.profOps)
		out["exec.stage_aggregate_ms"] = ms(p.aggregateNS) / float64(p.profOps)
	}
	if p.returnedRows > 0 {
		out["exec.rows_examined_per_result"] = float64(p.matchRows) / float64(p.returnedRows)
	}
}
