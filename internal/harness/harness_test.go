package harness

import (
	"strings"
	"testing"

	"kaskade/internal/workload"
)

// tiny keeps harness tests fast: ~5% of default dataset sizes.
func tiny() Config { return Config{Scale: 0.05, Sample: 25} }

func TestFig5ShapesHold(t *testing.T) {
	rows, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	byDataset := map[string][]Fig5Row{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
		// α-monotonicity everywhere.
		if r.Est50 > r.Est95 {
			t.Errorf("%s@%d: est50 %g > est95 %g", r.Dataset, r.Edges, r.Est50, r.Est95)
		}
	}
	// Power-law graph (soc): the α-percentile estimators bracket the
	// actual on the largest prefix, and Erdős–Rényi underestimates it.
	socRows := byDataset["soc"]
	last := socRows[len(socRows)-1]
	if !(last.Est50 <= float64(last.Actual)) {
		t.Errorf("soc: est50 %g should lower-bound actual %d", last.Est50, last.Actual)
	}
	if !(last.Est95 >= float64(last.Actual)/4) {
		t.Errorf("soc: est95 %g implausibly far below actual %d", last.Est95, last.Actual)
	}
	if last.ErdosRenyi >= float64(last.Actual) {
		t.Errorf("soc: Erdős–Rényi %g should underestimate actual %d (§V-A)", last.ErdosRenyi, last.Actual)
	}
	// Homogeneous connectors exceed the base graph size (§VII-D): the
	// 2-hop connector on soc is larger than the graph itself.
	if last.Actual <= int64(last.Edges) {
		t.Errorf("soc: connector (%d) should exceed graph size (%d)", last.Actual, last.Edges)
	}
}

func TestFig6ReductionShape(t *testing.T) {
	rows, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig6Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Stage] = r
	}
	// prov: filter cuts sharply (satellites dominate raw); connector
	// cuts further below the raw size.
	if !(byKey["prov/filter"].Edges < byKey["prov/raw"].Edges/3) {
		t.Errorf("prov filter %d vs raw %d: expected >3x reduction",
			byKey["prov/filter"].Edges, byKey["prov/raw"].Edges)
	}
	if !(byKey["prov/connector"].Edges < byKey["prov/raw"].Edges) {
		t.Errorf("prov connector %d not below raw %d",
			byKey["prov/connector"].Edges, byKey["prov/raw"].Edges)
	}
	// dblp: milder but present reduction at the filter stage.
	if !(byKey["dblp/filter"].Edges < byKey["dblp/raw"].Edges) {
		t.Errorf("dblp filter %d not below raw %d",
			byKey["dblp/filter"].Edges, byKey["dblp/raw"].Edges)
	}
	// Vertex counts shrink at each heterogeneous filter stage.
	if !(byKey["prov/connector"].Vertices < byKey["prov/filter"].Vertices) {
		t.Errorf("prov connector keeps %d vertices, filter %d",
			byKey["prov/connector"].Vertices, byKey["prov/filter"].Vertices)
	}
}

func TestFig7RunsAndAgrees(t *testing.T) {
	rows, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Dataset] = true
		if r.Baseline <= 0 || r.Connector <= 0 {
			t.Errorf("%s/%s: non-positive durations", r.Dataset, r.Query)
		}
		// Q1 agreement on prov (exact rewriting on the DAG lineage).
		if r.Dataset == "prov" && r.Query == workload.Q1BlastRadius {
			if r.BaselineResult != r.ConnectorResult {
				t.Errorf("prov Q1: base=%d conn=%d", r.BaselineResult, r.ConnectorResult)
			}
		}
	}
	for _, d := range []string{"prov", "dblp", "roadnet", "soc"} {
		if !seen[d] {
			t.Errorf("dataset %s missing from Fig. 7", d)
		}
	}
	// Q1 appears only for prov.
	for _, r := range rows {
		if r.Query == workload.Q1BlastRadius && r.Dataset != "prov" {
			t.Errorf("Q1 ran on %s", r.Dataset)
		}
	}
}

func TestFig8Fits(t *testing.T) {
	rows, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	fits := map[string]Fig8Row{}
	for _, r := range rows {
		fits[r.Dataset] = r
	}
	// Power-law datasets fit well; roadnet does not look power-law
	// (tiny max degree).
	if fits["soc"].R2 < 0.6 {
		t.Errorf("soc R² = %.2f, want power-law-like", fits["soc"].R2)
	}
	if fits["roadnet"].MaxDeg > 4 {
		t.Errorf("roadnet max degree = %d", fits["roadnet"].MaxDeg)
	}
	if fits["soc"].MaxDeg <= fits["roadnet"].MaxDeg {
		t.Error("soc should have much heavier tail than roadnet")
	}
}

func TestTableIII(t *testing.T) {
	rows, err := TableIII(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 4 raw + 2 summarized
		t.Fatalf("Table III rows = %d, want 6", len(rows))
	}
	if rows[0].Name != "prov (raw)" || rows[1].Name != "prov (summarized)" {
		t.Errorf("row order: %v, %v", rows[0].Name, rows[1].Name)
	}
	if rows[1].Edges >= rows[0].Edges {
		t.Error("summarized prov not smaller than raw")
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Constrained candidate count stays tiny while the
		// unconstrained space grows with k.
		if r.ConstrainedCandidates > 12 {
			t.Errorf("maxK=%d: %d constrained candidates", r.MaxK, r.ConstrainedCandidates)
		}
		if r.MaxK >= 6 && r.UnconstrainedSolutions <= r.ConstrainedCandidates {
			t.Errorf("maxK=%d: unconstrained %d not larger than constrained %d",
				r.MaxK, r.UnconstrainedSolutions, r.ConstrainedCandidates)
		}
	}
	// The unconstrained space is every prov schema walk of 2..max_k
	// edges, and grows with k (cyclic schema).
	for i, want := range []int{9, 36, 75, 126, 189} {
		if got := rows[i].UnconstrainedSolutions; got != want {
			t.Errorf("maxK=%d: %d unconstrained solutions, want %d", rows[i].MaxK, got, want)
		}
	}
	if rows[4].ProceduralExplored <= rows[0].ProceduralExplored {
		t.Error("Alg. 1 explored count should grow with k")
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	cfg := tiny()
	if rows, err := Fig6(cfg); err == nil {
		PrintFig6(&sb, rows)
	}
	if rows, err := Fig8(cfg); err == nil {
		PrintFig8(&sb, rows)
	}
	if rows, err := TableIII(cfg); err == nil {
		PrintTableIII(&sb, rows)
	}
	PrintTableIAndII(&sb)
	PrintTableIV(&sb)
	if rows, err := Ablation(); err == nil {
		PrintAblation(&sb, rows)
	}
	out := sb.String()
	for _, want := range []string{"Fig. 6", "Fig. 8", "Table III", "Table I", "Table IV", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}
