package main

import (
	"context"
	"sort"
	"time"

	"kaskade"
	"kaskade/internal/delta"
)

// maintainFiles is how many files the maintenance probe adds, each with
// one writer and three readers.
const maintainFiles = 200

// probeViews times materialization of the two view classes the
// workloads adopt, incremental maintenance of the connector per base
// edge, and the delta computation underneath it.
func probeViews(_ context.Context, pe *probeEnv, out map[string]float64) error {
	var err error
	out["views.khop_materialize_ms"] = ms(int64(medianDuration(3, func() { _, err = connectorDef.Materialize(pe.base) })))
	if err != nil {
		return err
	}
	var base *kaskade.Graph
	out["views.summarizer_materialize_ms"] = ms(int64(medianDuration(3, func() { base, err = summarizeProv(pe.raw) })))
	if err != nil {
		return err
	}

	m, err := kaskade.NewMaintainedConnector(connectorDef, base)
	if err != nil {
		return err
	}
	jobs := append([]kaskade.VertexID(nil), base.VerticesOfType("Job")...)
	viewBefore, baseEdges := m.View().NumEdges(), 0
	var addNS []int64
	var added []kaskade.EdgeID
	addEdge := func(from, to kaskade.VertexID, etype string, ts int64) error {
		start := time.Now()
		eid, err := m.AddEdge(from, to, etype, kaskade.Properties{"ts": ts})
		addNS = append(addNS, int64(time.Since(start)))
		added = append(added, eid)
		baseEdges++
		return err
	}
	for i := 0; i < maintainFiles; i++ {
		f, err := m.AddVertex("File", kaskade.Properties{"name": "probe_file", "size": int64(i)})
		if err != nil {
			return err
		}
		w := (i * 37) % (len(jobs) - readersPerFile)
		if err := addEdge(jobs[w], f, "WRITES_TO", int64(i)); err != nil {
			return err
		}
		for r := 1; r <= readersPerFile; r++ {
			if err := addEdge(f, jobs[w+r], "IS_READ_BY", int64(i)); err != nil {
				return err
			}
		}
	}
	sort.Slice(addNS, func(i, j int) bool { return addNS[i] < addNS[j] })
	out["views.maintain_add_edge_p50_us"] = us(percentile(addNS, 50))
	out["views.maintain_add_edge_p99_us"] = us(percentile(addNS, 99))
	out["views.maintain_paths_per_edge"] = float64(m.View().NumEdges()-viewBefore) / float64(baseEdges)

	cfg := delta.Config{SrcType: connectorDef.SrcType, DstType: connectorDef.DstType, Ks: []int{connectorDef.K}}
	start := time.Now()
	for _, eid := range added {
		delta.EdgeDeltas(base, eid, cfg)
	}
	out["delta.edge_deltas_us"] = us(int64(time.Since(start))) / float64(len(added))
	return nil
}
