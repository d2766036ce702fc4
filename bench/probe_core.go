package main

import (
	"context"

	"kaskade"
)

// probeCore times the façade's prepared path — Prepare plus the first
// rewrite, then execution per statement — and what the always-on
// metrics registry adds to a prepared execution (the ROADMAP's 5 %
// guard).
func probeCore(ctx context.Context, pe *probeEnv, out map[string]float64) error {
	var opts []kaskade.QueryOption
	if !pe.useViews {
		opts = append(opts, kaskade.WithoutViews())
	}
	var err error
	var prepareNS float64
	stmts := make([]*kaskade.PreparedQuery, len(lineageTexts))
	for i, text := range lineageTexts {
		prepareNS += float64(medianDuration(5, func() {
			stmt, e := pe.sys.Prepare(text, opts...)
			if e == nil {
				_, e = stmt.Plan()
			}
			if e != nil {
				err = e
			}
			stmts[i] = stmt
		}))
	}
	if err != nil {
		return err
	}
	out["core.prepare_us"] = prepareNS / float64(len(stmts)) / 1e3

	exec := func(stmt *kaskade.PreparedQuery, reps int) float64 {
		return float64(medianDuration(reps, func() {
			if _, e := stmt.ExecContext(ctx); e != nil {
				err = e
			}
		}))
	}
	for i, key := range stmtKeys {
		out["core.exec_prepared_us."+key] = exec(stmts[i], repsFor(key)) / 1e3
	}
	proj := stmts[kindProj]

	// The two arms alternate, so drift hits both alike.
	registry := pe.sys.Metrics()
	var on, off []float64
	for i := 0; i < pairedReps; i++ {
		pe.sys.SetMetrics(registry)
		on = append(on, exec(proj, 1))
		pe.sys.SetMetrics(nil)
		off = append(off, exec(proj, 1))
	}
	pe.sys.SetMetrics(registry)
	if base := median(off); base > 0 {
		out["metrics.record_overhead_pct"] = 100 * (median(on)/base - 1)
	}
	return err
}
