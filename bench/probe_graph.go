package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"kaskade"
)

// scanReps repeats each storage scan, which on 2,000 jobs lasts only
// microseconds; the median rep is reported.
const scanReps = 21

// scanSink keeps the scans' results live.
var scanSink int64

// probeGraph times the storage layer: freeze, the four read paths the
// matcher and kernels use, and the delta overlay's write, read and
// compaction costs.
func probeGraph(_ context.Context, pe *probeEnv, out map[string]float64) error {
	// Freeze and footprint, on a fresh summary no one has frozen yet.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err := summarizeProv(pe.raw)
	if err != nil {
		return err
	}
	start := time.Now()
	fz := g.Freeze()
	out["graph.freeze_ms"] = ms(int64(time.Since(start)))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out["graph.bytes_per_edge"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(g.NumEdges())

	jobs := fz.VerticesOfType("Job")
	perEdge := func(scan func() int) float64 {
		edges := 0
		d := medianDuration(scanReps, func() { edges = scan() })
		return float64(d) / float64(edges)
	}
	adjScan := func() int {
		n := 0
		for v := 0; v < fz.NumVertices(); v++ {
			for _, e := range fz.Out(kaskade.VertexID(v)) {
				scanSink += int64(fz.To(e))
				n++
			}
		}
		return n
	}
	out["graph.adj_scan_ns_per_edge"] = perEdge(adjScan)
	writes, ok := fz.EdgeTypeID("WRITES_TO")
	if !ok {
		return errors.New("summary has no WRITES_TO edges")
	}
	out["graph.typed_scan_ns_per_edge"] = perEdge(func() int {
		n := 0
		for _, v := range jobs {
			for _, e := range fz.OutTyped(v, writes) {
				scanSink += int64(fz.To(e))
				n++
			}
		}
		return n
	})
	cpu, ok := fz.Column("Job", "CPU")
	if !ok {
		return errors.New("summary has no Job.CPU column")
	}
	out["graph.column_scan_ns_per_vertex"] = perEdge(func() int {
		for _, v := range jobs {
			x, _ := cpu.Int(v)
			scanSink += x
		}
		return len(jobs)
	})
	out["graph.map_prop_ns_per_vertex"] = perEdge(func() int {
		for _, v := range jobs {
			x, _ := g.Vertex(v).Prop("CPU").(int64)
			scanSink += x
		}
		return len(jobs)
	})

	// Overlay: grow an un-compacted tail of 10 % of the edges, then read
	// through it and fold it.
	g.SetCompactionThreshold(math.MaxInt)
	files := fz.VerticesOfType("File")
	tail := g.NumEdges() / 10
	start = time.Now()
	for i := 0; i < tail; i++ {
		props := kaskade.Properties{"ts": int64(i)}
		if _, err := g.AddEdge(jobs[i%len(jobs)], files[i%len(files)], "WRITES_TO", props); err != nil {
			return err
		}
	}
	out["graph.add_edge_us"] = us(int64(time.Since(start))) / float64(tail)
	fz = g.Freeze()
	out["graph.adj_scan_overlay_ns_per_edge"] = perEdge(adjScan)
	start = time.Now()
	if err := g.Compact(); err != nil {
		return err
	}
	out["graph.compact_ms"] = ms(int64(time.Since(start)))
	return nil
}
