package main

import (
	"context"
	"runtime"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// probeExec times each lineage statement whole and with its innermost
// MATCH alone, over the adopted view and over the base graph; the
// difference is the relational tail (nested GROUP BY), which is what
// decides blast-radius filter-vs-connector parity. It also prices
// streaming against buffering and the parallel matcher against the
// sequential one.
func probeExec(ctx context.Context, pe *probeEnv, out map[string]float64) error {
	var err error
	execute := func(plan *workload.Plan, q gql.Query, workers, reps int) float64 {
		ex := &exec.Executor{G: plan.Graph, Workers: workers}
		return ms(int64(medianDuration(reps, func() {
			if _, e := ex.ExecuteContext(ctx, q); e != nil {
				err = e
			}
		})))
	}
	for i, key := range stmtKeys {
		view, raw, perr := pe.plans(lineageTexts[i])
		if perr != nil {
			return perr
		}
		reps := repsFor(key)
		viewMS := execute(view, view.Query, 1, reps)
		rawMS := execute(raw, raw.Query, 1, reps)
		out["workload.view_speedup."+key] = rawMS / viewMS
		plan, whole := view, viewMS
		if !pe.useViews {
			plan, whole = raw, rawMS
		}
		match := execute(plan, gql.InnermostMatch(plan.Query), 1, reps)
		out["exec.execute_ms."+key] = whole
		out["exec.match_ms."+key] = match
		out["exec.tail_ms."+key] = whole - match

		switch key {
		case "blast":
			parallel := execute(raw, raw.Query, runtime.GOMAXPROCS(0), reps)
			out["exec.workers_speedup"] = rawMS / parallel
		case "proj":
			// The two arms alternate, so drift hits both alike.
			ex := &exec.Executor{G: plan.Graph}
			var streamed, buffered []float64
			for i := 0; i < pairedReps; i++ {
				streamed = append(streamed, float64(elapsed(func() {
					if e := drain(ex.Stream(ctx, plan.Query)); e != nil {
						err = e
					}
				})))
				buffered = append(buffered, execute(plan, plan.Query, 1, 1))
			}
			out["exec.stream_vs_buffered_ratio"] = median(streamed) / 1e6 / median(buffered)
			out["exec.first_row_us"] = us(int64(medianDuration(reps, func() {
				rows, e := ex.Stream(ctx, plan.Query)
				if e != nil {
					err = e
					return
				}
				rows.Next()
				rows.Close()
			})))
		}
	}
	return err
}
