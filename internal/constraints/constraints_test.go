package constraints

import (
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

func TestProjectedVars(t *testing.T) {
	m := gql.MustParse(`MATCH (a:Job)-[:W]->(b:File) RETURN a.name, COUNT(b) AS n`).(*gql.MatchQuery)
	got := ProjectedVars(m)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("projected = %v, want [a b]", got)
	}
}

func TestKHopSchemaPathsProcedural(t *testing.T) {
	edges := []graph.EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
		{From: "File", To: "Job", Name: "IS_READ_BY"},
	}
	paths, explored := KHopSchemaPathsProcedural(edges, 2)
	if len(paths) != 2 {
		t.Fatalf("2-hop schema paths = %d, want 2 (J->F->J, F->J->F)", len(paths))
	}
	if explored <= 0 {
		t.Error("explored count not tracked")
	}
	// k=1 returns the schema edges themselves.
	one, _ := KHopSchemaPathsProcedural(edges, 1)
	if len(one) != 2 {
		t.Errorf("1-hop = %d, want 2", len(one))
	}
	if p, _ := KHopSchemaPathsProcedural(edges, 0); p != nil {
		t.Error("k=0 should yield nothing")
	}
}

// TestProceduralExploresMore backs §IV-A: the procedural version explores
// a larger space than the constrained declarative pipeline because it
// cannot be injected among the other rules — on a cyclic schema the
// explored-extensions metric grows quickly with k.
func TestProceduralExploresMore(t *testing.T) {
	edges := []graph.EdgeType{
		{From: "Job", To: "File", Name: "W"},
		{From: "File", To: "Job", Name: "R"},
		{From: "Job", To: "Task", Name: "S"},
		{From: "Task", To: "Task", Name: "T"}, // cycle
		{From: "Task", To: "Machine", Name: "M"},
	}
	_, explored4 := KHopSchemaPathsProcedural(edges, 4)
	_, explored8 := KHopSchemaPathsProcedural(edges, 8)
	if explored8 <= explored4 {
		t.Errorf("explored(k=8)=%d should exceed explored(k=4)=%d", explored8, explored4)
	}
}

// TestSchemaWalksCountsEveryWalk checks the dynamic program against a
// walk-by-walk listing on the datagen schemas and a two-type lineage
// schema, at every maximum length up to 6.
func TestSchemaWalksCountsEveryWalk(t *testing.T) {
	lineage := []graph.EdgeType{
		{From: "Job", To: "File", Name: "WRITES_TO"},
		{From: "File", To: "Job", Name: "IS_READ_BY"},
	}
	var list func(edges []graph.EdgeType, at string, left int) int
	list = func(edges []graph.EdgeType, at string, left int) int {
		if left == 0 {
			return 1
		}
		n := 0
		for _, e := range edges {
			if at == "" || e.From == at {
				n += list(edges, e.To, left-1)
			}
		}
		return n
	}
	for name, edges := range map[string][]graph.EdgeType{
		"lineage": lineage,
		"prov":    datagen.ProvSchema().EdgeTypes(),
		"dblp":    datagen.DBLPSchema().EdgeTypes(),
		"roadnet": datagen.RoadNetSchema().EdgeTypes(),
		"soc":     datagen.SocialSchema().EdgeTypes(),
	} {
		want := 0
		for maxK := 2; maxK <= 6; maxK++ {
			want += list(edges, "", maxK)
			if got := SchemaWalks(edges, maxK); got != want {
				t.Errorf("%s: %d walks of length 2..%d, listing finds %d", name, got, maxK, want)
			}
		}
	}
	if got := SchemaWalks(lineage, 1); got != 0 {
		t.Errorf("no length in 2..1, yet %d walks", got)
	}
}
