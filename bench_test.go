// Benchmarks regenerating the paper's tables and figures (one benchmark
// per table/figure, backed by internal/harness) plus micro-benchmarks of
// the pieces Kaskade puts on the critical path: view enumeration (the
// paper reports "a few milliseconds" per query, §VII-A), connector
// materialization, pattern matching, and view selection.
//
// Run with: go test -bench=. -benchmem
package kaskade_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"kaskade"
	"kaskade/internal/datagen"
	"kaskade/internal/enum"
	"kaskade/internal/exec"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/harness"
	"kaskade/internal/knapsack"
	"kaskade/internal/views"
	"kaskade/internal/workload"
)

// benchCfg keeps figure regeneration fast enough for -bench runs while
// preserving every shape; use cmd/kaskade-bench for full-scale output.
func benchCfg() harness.Config { return harness.Config{Scale: 0.05, Sample: 25} }

// --- one benchmark per table/figure ---

func BenchmarkTableI_II_ViewInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if kaskade.ViewInventory() == "" {
			b.Fatal("empty inventory")
		}
	}
}

func BenchmarkTableIII_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableIII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintTableIII(io.Discard, rows)
	}
}

func BenchmarkTableIV_Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.PrintTableIV(io.Discard)
	}
}

func BenchmarkFig5_ViewSizeEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintFig5(io.Discard, rows)
	}
}

func BenchmarkFig6_SizeReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintFig6(io.Discard, rows)
	}
}

func BenchmarkFig7_QueryRuntimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintFig7(io.Discard, rows)
	}
}

func BenchmarkFig8_DegreeDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintFig8(io.Discard, rows)
	}
}

func BenchmarkAblation_SearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		harness.PrintAblation(io.Discard, rows)
	}
}

// --- critical-path micro-benchmarks ---

func filteredProvBench(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob, cfg.Machines = 500, 1200, 2, 20
	raw, err := datagen.Prov(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkViewEnumeration measures enumeration latency for the
// blast-radius query — the paper's "introduces a few milliseconds to the
// total query runtime" claim (§VII-A). Enumeration reads the candidates
// off the query's schema typing and checks each through rewrite.Apply;
// it loads nothing first, so there is no cold start to measure.
func BenchmarkViewEnumeration(b *testing.B) {
	q := gql.MustParse(harness.BlastRadiusQuery)
	en := &enum.Enumerator{Schema: datagen.ProvSchema(), MaxK: 10}
	for i := 0; i < b.N; i++ {
		if _, err := en.Enumerate(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnectorMaterialization(b *testing.B) {
	g := filteredProvBench(b)
	v := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Materialize(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarizerMaterialization(b *testing.B) {
	cfg := datagen.DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob = 500, 1200, 10
	raw, err := datagen.Prov(cfg)
	if err != nil {
		b.Fatal(err)
	}
	v := views.VertexInclusionSummarizer{Types: []string{"Job", "File"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Materialize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlastRadius compares the paper's headline query over the
// filtered graph vs. over the materialized 2-hop connector.
func BenchmarkBlastRadius(b *testing.B) {
	g := filteredProvBench(b)
	conn, err := views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}.Materialize(g)
	if err != nil {
		b.Fatal(err)
	}
	base := gql.MustParse(harness.BlastRadiusQuery)
	rewritten := gql.MustParse(`
		SELECT A.pipelineName, AVG(T_CPU) FROM (
		  SELECT A, SUM(B.CPU) AS T_CPU FROM (
		    MATCH (q_j1:Job)-[r:CONN_2HOP_Job_Job*1..5]->(q_j2:Job)
		    RETURN q_j1 AS A, q_j2 AS B
		  ) GROUP BY A, B
		) GROUP BY A.pipelineName`)

	b.Run("filter", func(b *testing.B) {
		ex := &exec.Executor{G: g}
		for i := 0; i < b.N; i++ {
			if _, err := ex.Execute(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("connector", func(b *testing.B) {
		ex := &exec.Executor{G: conn}
		for i := 0; i < b.N; i++ {
			if _, err := ex.Execute(rewritten); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkViewSelection(b *testing.B) {
	g := filteredProvBench(b)
	a := workload.NewAnalyzer(g.Schema())
	qs := []gql.Query{gql.MustParse(harness.BlastRadiusQuery)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(g, qs, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternMatch2Hop(b *testing.B) {
	g := filteredProvBench(b)
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`)
	ex := &exec.Executor{G: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts are the parallelism levels the parallel-executor
// benchmarks sweep: one-worker baseline, 2, 4, and every CPU.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkParallelPatternMatch measures the worker-pool matcher on the
// multi-core datagen workload: the 2-hop lineage join over the filtered
// provenance graph. workers=1 walks the Job candidates inline; higher
// counts split them into chunks on a pool (results are identical
// either way).
func BenchmarkParallelPatternMatch(b *testing.B) {
	g := filteredProvBench(b)
	q := gql.MustParse(`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ex := &exec.Executor{G: g, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelVarLengthMatch stresses the matcher's hardest case —
// variable-length path enumeration with edge uniqueness — where each
// first-node subtree is expensive and worker partitioning pays most.
func BenchmarkParallelVarLengthMatch(b *testing.B) {
	g := filteredProvBench(b)
	q := gql.MustParse(`MATCH (a:Job)-[r*1..3]->(v) RETURN COUNT(r) AS n`)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ex := &exec.Executor{G: g, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelViewMaterialization measures concurrent catalog
// builds: four independent views over one read-only base graph.
func BenchmarkParallelViewMaterialization(b *testing.B) {
	g := filteredProvBench(b)
	vs := []views.View{
		views.KHopConnector{SrcType: "Job", DstType: "Job", K: 2},
		views.KHopConnector{SrcType: "File", DstType: "File", K: 2},
		views.VertexInclusionSummarizer{Types: []string{"Job"}},
		views.EdgeInclusionSummarizer{Types: []string{"WRITES_TO"}},
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := workload.NewCatalog(g)
				if err := c.AddAll(vs, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedVsAdHoc is the prepared-query acceptance benchmark:
// ad-hoc Query pays parse + §V-C view rewriting (schema inference,
// candidate enumeration, cost estimation) on every call, while a
// PreparedQuery pays them once and then only an epoch check per
// execution. The graph is kept small so the match itself is cheap and
// the amortized planning work dominates the gap.
func BenchmarkPreparedVsAdHoc(b *testing.B) {
	g := buildLineage(7, 30, 60)
	sys := kaskade.New(g)
	sel, err := sys.SelectViews([]string{blastRadiusQuery}, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AdoptSelection(sel); err != nil {
		b.Fatal(err)
	}

	b.Run("adhoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query(blastRadiusQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		stmt, err := sys.Prepare(blastRadiusQuery)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamedVsBuffered prices the Rows cursor against the
// buffered Result on a projection query: the cursor adds one coroutine
// hop per row but never holds the full table.
func BenchmarkStreamedVsBuffered(b *testing.B) {
	g := filteredProvBench(b)
	q := gql.MustParse(`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`)
	ex := &exec.Executor{G: g}
	ctx := context.Background()
	b.Run("buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExecuteContext(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := ex.Stream(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKnapsack60Items(b *testing.B) {
	items := make([]knapsack.Item, 60)
	for i := range items {
		items[i] = knapsack.Item{Weight: int64(1 + (i*37)%997), Value: float64((i * 61) % 503)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knapsack.Solve(items, 5_000)
	}
}

func BenchmarkLabelPropagation(b *testing.B) {
	g := filteredProvBench(b)
	r := workload.BaseRunner(g, "Job", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(workload.Q7Community); err != nil {
			b.Fatal(err)
		}
	}
}
