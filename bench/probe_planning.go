package main

import (
	"context"

	"kaskade/internal/cost"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
)

// probePlanning times the planning layers a span around Catalog.PlanOnly
// cannot split: constraint-based enumeration and the cost model, over
// the lineage statements and the head of the ad hoc population.
func probePlanning(_ context.Context, pe *probeEnv, out map[string]float64) error {
	texts := append(append([]string(nil), lineageTexts...), selectiveTexts(8)...)
	schema := pe.base.Schema()
	en := &enum.Enumerator{Schema: schema}
	var props *cost.GraphProperties
	out["cost.collect_ms"] = ms(int64(medianDuration(3, func() { props = cost.Collect(pe.base) })))

	var enumNS, costNS, candidates float64
	for _, text := range texts {
		q, err := gql.Parse(text)
		if err != nil {
			return err
		}
		var res *enum.Result
		enumNS += float64(medianDuration(3, func() { res, err = en.Enumerate(q) }))
		if err != nil {
			return err
		}
		candidates += float64(len(res.Candidates))
		costNS += float64(medianDuration(3, func() { _, err = cost.EvalCost(q, props, schema, cost.DefaultAlpha) }))
		if err != nil {
			return err
		}
	}
	n := float64(len(texts))
	out["enum.enumerate_us"] = enumNS / n / 1e3
	out["enum.candidates"] = candidates / n
	out["cost.evalcost_us"] = costNS / n / 1e3
	return nil
}
