package main

import (
	"context"
	"errors"
	"fmt"

	"kaskade"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// Probes time layer functions that no op calls per-op (freeze, compact,
// materialize, enumerate, scans) and statement-level costs a span cannot
// split (match vs. relational tail), on the same graphs the workloads
// run on. Each layer's probes live in their own probe_<layer>.go, so an
// API change in one package touches one file here.

// probeEnv is the fixture the probes share: the unsummarized graph, its
// Job+File summary, and a sequential System over the summary with the
// lineage views adopted.
type probeEnv struct {
	raw, base *kaskade.Graph
	sys       *kaskade.System
	conn      *kaskade.Graph // the adopted 2-hop Job→Job connector
	// useViews selects which side of each statement the per-statement
	// metrics report: the plan over the adopted view, or (lineage_raw)
	// the base-graph plan.
	useViews bool
}

func newProbeEnv(raw *kaskade.Graph, useViews bool) (*probeEnv, error) {
	if raw == nil {
		return nil, errors.New("the unsummarized graph was not kept for the probes")
	}
	base, err := summarizeProv(raw)
	if err != nil {
		return nil, err
	}
	sys := kaskade.New(base)
	if _, _, err := buildViews(sys, lineageTexts); err != nil {
		return nil, err
	}
	m, ok := sys.Catalog().Get(connectorDef.Name())
	if !ok {
		return nil, fmt.Errorf("SelectViews did not choose %s", connectorDef.Name())
	}
	return &probeEnv{raw: raw, base: base, sys: sys, conn: m.Graph, useViews: useViews}, nil
}

// plans returns a lineage statement's plan over the adopted view and
// over the base graph.
func (pe *probeEnv) plans(text string) (view, raw *workload.Plan, err error) {
	q, err := gql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	view, err = pe.sys.Catalog().PlanOnly(q)
	if err != nil {
		return nil, nil, err
	}
	if view.ViewName == "" {
		return nil, nil, fmt.Errorf("no adopted view serves %q", text)
	}
	return view, &workload.Plan{Query: q, Graph: pe.base}, nil
}

// pairedReps is how many alternating pairs an A/B probe of a
// millisecond-scale statement times.
const pairedReps = 15

// repsFor keeps the 100 ms blast-radius statement from dominating a
// traced run's probe time.
func repsFor(key string) int {
	if key == "blast" {
		return 3
	}
	return 5
}

// runProbes runs every layer's probes and returns their metrics.
func runProbes(ctx context.Context, raw *kaskade.Graph, useViews bool) (map[string]float64, error) {
	pe, err := newProbeEnv(raw, useViews)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, probe := range []func(context.Context, *probeEnv, map[string]float64) error{
		probeGraph, probePlanning, probeViews, probeExec, probeCore, probeAlgo, probeServer,
	} {
		if err := probe(ctx, pe, out); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
