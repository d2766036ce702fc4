package main

import (
	"context"

	"kaskade/internal/algo"
)

// labelPropPasses keeps the label-propagation probe short; the cost per
// pass is what an optimisation moves.
const labelPropPasses = 5

// probeAlgo times the traversal kernels behind Q3, Q4 and Q7 on the
// graph the workload's Runner traverses: the connector with the
// rewritten hop budget, or the base graph with the full one.
func probeAlgo(ctx context.Context, pe *probeEnv, out map[string]float64) error {
	g, hops := pe.conn, 2
	if !pe.useViews {
		g, hops = pe.base, 4
	}
	srcs := g.VerticesOfType("Job")
	if len(srcs) > runnerSample {
		srcs = srcs[:runnerSample]
	}
	t := algo.NewTraversal(g)
	var err error
	perSource := func(fn func()) float64 {
		return us(int64(medianDuration(5, fn))) / float64(len(srcs))
	}
	out["algo.khop_us_per_source"] = perSource(func() {
		for _, s := range srcs {
			if _, e := t.KHopContext(ctx, s, hops, algo.Forward); e != nil {
				err = e
			}
		}
	})
	out["algo.pathlengths_us_per_source"] = perSource(func() {
		for _, s := range srcs {
			if _, e := t.PathLengthsContext(ctx, s, hops, "ts"); e != nil {
				err = e
			}
		}
	})
	out["algo.label_prop_ms"] = ms(int64(medianDuration(3, func() {
		if _, e := algo.LabelPropagationParallel(ctx, g, labelPropPasses, "community", 1); e != nil {
			err = e
		}
	})))
	return err
}
