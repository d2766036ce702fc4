package graph

import (
	"bytes"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return back
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := MustSchema(
		[]string{"Job", "File"},
		[]EdgeType{
			{From: "Job", To: "File", Name: "W"},
			{From: "File", To: "Job", Name: "R"},
		},
	)
	g := NewGraph(s)
	j := g.MustAddVertex("Job", Properties{"name": "j1", "CPU": int64(42), "load": 0.5})
	f := g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(7)})
	g.MustAddEdge(f, j, "R", nil)

	back := roundTrip(t, g)
	if back.NumVertices() != 2 || back.NumEdges() != 2 {
		t.Fatalf("sizes: %v", back)
	}
	// Schema survived.
	if back.Schema() == nil || !back.Schema().AllowsEdge("Job", "File", "W") {
		t.Error("schema lost in round trip")
	}
	// Property types survived: int64 stays int64, float stays float.
	v := back.Vertex(0)
	if v.Prop("CPU") != int64(42) {
		t.Errorf("CPU = %v (%T), want int64 42", v.Prop("CPU"), v.Prop("CPU"))
	}
	if v.Prop("load") != 0.5 {
		t.Errorf("load = %v, want 0.5", v.Prop("load"))
	}
	if v.Prop("name") != "j1" {
		t.Errorf("name = %v", v.Prop("name"))
	}
	// Edge identity and properties survived.
	e := back.Edge(0)
	if e.From != j || e.To != f || e.Type != "W" || back.EdgeProp(0, "ts") != int64(7) {
		t.Errorf("edge 0 = %+v", e)
	}
}

func TestSaveLoadNoSchema(t *testing.T) {
	g := NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	b := g.MustAddVertex("V", nil)
	g.MustAddEdge(a, b, "E", nil)
	back := roundTrip(t, g)
	if back.Schema() != nil {
		t.Error("schema materialized from nothing")
	}
	if back.NumEdges() != 1 {
		t.Errorf("|E| = %d", back.NumEdges())
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	back := roundTrip(t, NewGraph(nil))
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Errorf("empty round trip: %v", back)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"edge before vertex": "E\t0\t1\tX\t{}",
		"unknown record":     "Z\tfoo",
		"malformed vertex":   "V\t0\tJob",
		"bad vertex id":      "V\tzero\tJob\t{}",
		"non-dense id":       "V\t5\tJob\t{}",
		"bad props":          "V\t0\tJob\t{not json}",
		"schema after data":  "V\t0\tJob\t{}\nS\t[\"Job\"]\t[]",
		"edge bad endpoint":  "V\t0\tV\t{}\nE\t0\tx\tT\t{}",
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\nV\t0\tV\t{}\nV\t1\tV\t{}\n# another\nE\t0\t1\tT\t{}\n"
	g, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("loaded %v", g)
	}
}

func TestLoadEnforcesSchema(t *testing.T) {
	src := "S\t[\"Job\"]\t[]\nV\t0\tTask\t{}\n"
	if _, err := Load(strings.NewReader(src)); err == nil {
		t.Error("schema-violating vertex accepted")
	}
}
