package datagen

import (
	"testing"

	"kaskade/internal/graph"
	"kaskade/internal/stats"
)

func TestProvSchemaConformance(t *testing.T) {
	cfg := DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob = 200, 400, 5
	g, err := Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.CountVerticesOfType("Job") != 200 || g.CountVerticesOfType("File") != 400 {
		t.Errorf("jobs=%d files=%d", g.CountVerticesOfType("Job"), g.CountVerticesOfType("File"))
	}
	// Every edge obeys the schema (AddEdge enforces it, but verify the
	// generator produced the lineage shape: Files never write).
	g.EachEdge(func(e graph.Edge) {
		ft := g.Vertex(e.From).Type
		tt := g.Vertex(e.To).Type
		if e.Type == "WRITES_TO" && (ft != "Job" || tt != "File") {
			t.Fatalf("bad WRITES_TO %s->%s", ft, tt)
		}
		if e.Type == "IS_READ_BY" && (ft != "File" || tt != "Job") {
			t.Fatalf("bad IS_READ_BY %s->%s", ft, tt)
		}
	})
	// Satellites dominate the raw graph, like the paper's raw prov.
	tasks := g.CountVerticesOfType("Task")
	if tasks <= 200 {
		t.Errorf("tasks=%d should dominate jobs", tasks)
	}
	// Jobs carry the properties Q1 needs.
	j := g.VerticesOfType("Job")[0]
	if g.Vertex(j).Prop("CPU") == nil || g.Vertex(j).Prop("pipelineName") == nil {
		t.Error("job missing CPU/pipelineName properties")
	}
}

func TestProvDeterminism(t *testing.T) {
	cfg := DefaultProvConfig()
	cfg.Jobs, cfg.Files, cfg.TasksPerJob = 100, 150, 3
	g1, err := Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Prov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("sizes differ: %v vs %v", g1, g2)
	}
	for i := 0; i < g1.NumEdges(); i++ {
		e1, e2 := g1.Edge(graph.EdgeID(i)), g2.Edge(graph.EdgeID(i))
		if e1.From != e2.From || e1.To != e2.To || e1.Type != e2.Type {
			t.Fatalf("edge %d differs: %v vs %v", i, e1, e2)
		}
	}
}

func TestDBLP(t *testing.T) {
	cfg := DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Venues = 300, 500, 20
	g, err := DBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := g.EdgeTypeCounts()
	if counts["AUTHORED"] != counts["AUTHORED_BY"] {
		t.Errorf("AUTHORED=%d != AUTHORED_BY=%d", counts["AUTHORED"], counts["AUTHORED_BY"])
	}
	if counts["PUBLISHED_IN"] != 500 {
		t.Errorf("PUBLISHED_IN=%d, want one per paper", counts["PUBLISHED_IN"])
	}
	// Author participation is skewed: max papers-per-author well above
	// the median.
	s := stats.Summarize(g, "Author")
	if s.Max <= s.P50*2 {
		t.Errorf("author degrees not skewed: p50=%d max=%d", s.P50, s.Max)
	}
}

func TestRoadNet(t *testing.T) {
	cfg := DefaultRoadNetConfig()
	cfg.Width, cfg.Height = 30, 30
	g, err := RoadNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 900 {
		t.Errorf("|V|=%d, want 900", g.NumVertices())
	}
	s := stats.Summarize(g, "Intersection")
	if s.Max > 4 {
		t.Errorf("grid max out-degree = %d, want <= 4", s.Max)
	}
	// Near-constant degrees: p95 and p50 are close (non-power-law).
	if s.P95-s.P50 > 2 {
		t.Errorf("degree spread too wide for a road network: p50=%d p95=%d", s.P50, s.P95)
	}
}

func TestSocialNetworkPowerLaw(t *testing.T) {
	cfg := DefaultSocialConfig()
	cfg.Users, cfg.Edges = 3000, 20000
	g, err := SocialNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 20000 {
		t.Errorf("|E|=%d, want 20000", g.NumEdges())
	}
	degs := stats.OutDegrees(g, "User")
	fit, err := stats.FitPowerLaw(degs)
	if err != nil {
		t.Fatal(err)
	}
	// Power-law-ish: strongly negative slope with decent linear fit on
	// log-log CCDF.
	if fit.Slope > -0.5 {
		t.Errorf("slope = %.2f, want strongly negative", fit.Slope)
	}
	if fit.R2 < 0.7 {
		t.Errorf("R² = %.2f, want > 0.7 for power-law-like", fit.R2)
	}
	// No self loops.
	g.EachEdge(func(e graph.Edge) {
		if e.From == e.To {
			t.Fatal("self loop generated")
		}
	})
}

func TestPrefix(t *testing.T) {
	cfg := DefaultSocialConfig()
	cfg.Users, cfg.Edges = 500, 3000
	g, err := SocialNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Prefix(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 100 {
		t.Errorf("prefix |E|=%d, want 100", sub.NumEdges())
	}
	if sub.NumVertices() > 200 {
		t.Errorf("prefix has %d vertices for 100 edges", sub.NumVertices())
	}
	// Every prefix vertex is incident to at least one edge.
	incident := make([]bool, sub.NumVertices())
	sub.EachEdge(func(e graph.Edge) { incident[e.From], incident[e.To] = true, true })
	for id, ok := range incident {
		if !ok {
			t.Fatalf("isolated vertex %d in prefix", id)
		}
	}
	// Prefix larger than the graph clamps.
	all, err := Prefix(g, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumEdges() != g.NumEdges() {
		t.Errorf("clamped prefix |E|=%d, want %d", all.NumEdges(), g.NumEdges())
	}
	// Edge timestamps preserved.
	if sub.EdgeProp(0, "ts") != g.EdgeProp(0, "ts") || sub.EdgeProp(0, "ts") == nil {
		t.Error("prefix lost edge properties")
	}
}

func TestGenerateByName(t *testing.T) {
	for _, name := range []string{NameProv, NameDBLP, NameRoadNet, NameSocial} {
		g, err := Generate(name, 0.05, 99)
		if err != nil {
			t.Errorf("Generate(%s): %v", name, err)
			continue
		}
		if g.NumEdges() == 0 {
			t.Errorf("Generate(%s): empty graph", name)
		}
	}
	if _, err := Generate("nope", 1, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Prov(ProvConfig{}); err == nil {
		t.Error("zero prov config accepted")
	}
	if _, err := DBLP(DBLPConfig{Authors: 1}); err == nil {
		t.Error("bad dblp config accepted")
	}
	if _, err := RoadNet(RoadNetConfig{Width: 1, Height: 5}); err == nil {
		t.Error("1-wide roadnet accepted")
	}
	if _, err := SocialNetwork(SocialConfig{Users: 1, Edges: 5}); err == nil {
		t.Error("1-user social accepted")
	}
}
