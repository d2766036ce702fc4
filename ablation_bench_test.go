// Ablation benchmarks for design choices of the view layer:
// parallel-edge vs. deduplicated connector semantics, incremental view
// maintenance vs. rematerialization, the Eq. 1 vs. Eq. 3 size
// estimators vs. the exact count, and the cost of the blast radius
// rewritten over k = 2 and k = 4 connectors.
package kaskade_test

import (
	"fmt"
	"testing"

	"kaskade/internal/cost"
	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

// BenchmarkConnectorSemantics compares materialization under path
// semantics (one edge per contracted path, the §V-A default) against
// pair-dedup semantics (reachability only): dedup is smaller and
// cheaper, but loses path counts and per-path aggregates.
func BenchmarkConnectorSemantics(b *testing.B) {
	g := filteredProvBench(b)
	for _, dedup := range []bool{false, true} {
		name := "parallel_paths"
		if dedup {
			name = "dedup_pairs"
		}
		b.Run(name, func(b *testing.B) {
			v := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2, DedupPairs: dedup}
			var edges int
			for i := 0; i < b.N; i++ {
				vg, err := v.Materialize(g)
				if err != nil {
					b.Fatal(err)
				}
				edges = vg.NumEdges()
			}
			b.ReportMetric(float64(edges), "view_edges")
		})
	}
}

// BenchmarkViewMaintenance compares keeping a connector fresh under edge
// insertions via incremental maintenance vs. rematerializing after each
// batch — the reason MaintainedConnector exists.
func BenchmarkViewMaintenance(b *testing.B) {
	const batch = 50
	mkBase := func() (*graph.Graph, []graph.VertexID, []graph.VertexID) {
		cfg := datagen.DefaultProvConfig()
		cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines = 300, 700, 1, 5
		raw, err := datagen.Prov(cfg)
		if err != nil {
			b.Fatal(err)
		}
		g, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
		if err != nil {
			b.Fatal(err)
		}
		return g, g.VerticesOfType("Job"), g.VerticesOfType("File")
	}
	def := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base, jobs, files := mkBase()
			m, err := views.NewMaintainedConnector(def, base)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for k := 0; k < batch; k++ {
				j := jobs[k%len(jobs)]
				f := files[(k*7)%len(files)]
				if _, err := m.AddEdge(j, f, "WRITES_TO", graph.Properties{"ts": int64(k)}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("rematerialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base, jobs, files := mkBase()
			b.StartTimer()
			for k := 0; k < batch; k++ {
				j := jobs[k%len(jobs)]
				f := files[(k*7)%len(files)]
				if _, err := base.AddEdge(j, f, "WRITES_TO", graph.Properties{"ts": int64(k)}); err != nil {
					b.Fatal(err)
				}
				if _, err := def.Materialize(base); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSizeEstimators compares the two §V-A estimators with the
// exact count on the same graph; both are effectively free next to
// materialization, which is the point of estimating at all.
func BenchmarkSizeEstimators(b *testing.B) {
	g := filteredProvBench(b)
	props := cost.Collect(g)
	b.Run("erdos_renyi_eq1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cost.ErdosRenyiPaths(int64(props.NumVertices), int64(props.NumEdges), 2)
		}
	})
	b.Run("heterogeneous_eq3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cost.EstimateKHopPaths(props, g.Schema(), 2, 95); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact_count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			views.CountKHopPaths(g, "Job", "Job", 2)
		}
	})
}

// BenchmarkEvalCostByK shows how the cost model prices the blast radius
// rewritten over increasing k (larger k = fewer hops to traverse but
// denser contracted edges); the knapsack sees these tradeoffs.
func BenchmarkEvalCostByK(b *testing.B) {
	g := filteredProvBench(b)
	props := cost.Collect(g)
	for _, k := range []int{2, 4} {
		lo, hi := (2+k-1)/k, 10/k
		q := gql.MustParse(fmt.Sprintf(
			`MATCH (a:Job)-[r:CONN_%dHOP_Job_Job*%d..%d]->(b:Job) RETURN a, b`, k, lo, hi))
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cost.EvalCost(q, props, nil, 95); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
