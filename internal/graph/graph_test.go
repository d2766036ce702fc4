package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func lineageSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]string{"Job", "File"},
		[]EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
		},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestAddVertexAssignsDenseIDs(t *testing.T) {
	g := NewGraph(lineageSchema(t))
	for i := 0; i < 5; i++ {
		id, err := g.AddVertex("Job", nil)
		if err != nil {
			t.Fatalf("AddVertex: %v", err)
		}
		if id != VertexID(i) {
			t.Errorf("vertex %d got ID %d", i, id)
		}
	}
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
}

func TestAddVertexRejectsUnknownType(t *testing.T) {
	g := NewGraph(lineageSchema(t))
	if _, err := g.AddVertex("Task", nil); err == nil {
		t.Fatal("AddVertex with undeclared type: want error, got nil")
	}
}

func TestAddEdgeEnforcesSchema(t *testing.T) {
	g := NewGraph(lineageSchema(t))
	j := g.MustAddVertex("Job", nil)
	f := g.MustAddVertex("File", nil)

	if _, err := g.AddEdge(j, f, "WRITES_TO", nil); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	// Wrong direction.
	if _, err := g.AddEdge(f, j, "WRITES_TO", nil); err == nil {
		t.Error("File-[WRITES_TO]->Job accepted; schema should forbid it")
	}
	// File-File edges do not exist in a lineage schema.
	f2 := g.MustAddVertex("File", nil)
	if _, err := g.AddEdge(f, f2, "IS_READ_BY", nil); err == nil {
		t.Error("File-[IS_READ_BY]->File accepted; schema should forbid it")
	}
}

func TestAddEdgeRejectsInvalidEndpoints(t *testing.T) {
	g := NewGraph(nil)
	v := g.MustAddVertex("A", nil)
	if _, err := g.AddEdge(v, 99, "E", nil); err == nil {
		t.Error("edge to nonexistent vertex accepted")
	}
	if _, err := g.AddEdge(-1, v, "E", nil); err == nil {
		t.Error("edge from negative vertex accepted")
	}
}

func TestAdjacency(t *testing.T) {
	g := NewGraph(nil)
	a := g.MustAddVertex("A", nil)
	b := g.MustAddVertex("B", nil)
	c := g.MustAddVertex("C", nil)
	e1 := g.MustAddEdge(a, b, "E", nil)
	e2 := g.MustAddEdge(a, c, "E", nil)
	e3 := g.MustAddEdge(b, c, "E", nil)

	f := g.Freeze()
	if got := f.Out(a); len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Errorf("Out(a) = %v, want [%d %d]", got, e1, e2)
	}
	if got := f.In(c); len(got) != 2 || got[0] != e2 || got[1] != e3 {
		t.Errorf("In(c) = %v, want [%d %d]", got, e2, e3)
	}
	if f.OutDegree(a) != 2 || f.InDegree(a) != 0 {
		t.Errorf("degrees of a = (%d,%d), want (2,0)", f.OutDegree(a), f.InDegree(a))
	}
	if g.Edge(e3).From != b || g.Edge(e3).To != c {
		t.Errorf("Edge(e3) endpoints = (%d,%d), want (%d,%d)", g.Edge(e3).From, g.Edge(e3).To, b, c)
	}
}

func TestVerticesOfType(t *testing.T) {
	g := NewGraph(lineageSchema(t))
	j1 := g.MustAddVertex("Job", nil)
	g.MustAddVertex("File", nil)
	j2 := g.MustAddVertex("Job", nil)

	jobs := g.VerticesOfType("Job")
	if len(jobs) != 2 || jobs[0] != j1 || jobs[1] != j2 {
		t.Errorf("VerticesOfType(Job) = %v, want [%d %d]", jobs, j1, j2)
	}
	if n := g.CountVerticesOfType("File"); n != 1 {
		t.Errorf("CountVerticesOfType(File) = %d, want 1", n)
	}
	if got := g.VerticesOfType("Task"); got != nil {
		t.Errorf("VerticesOfType(Task) = %v, want nil", got)
	}
}

func TestVertexTypesSorted(t *testing.T) {
	g := NewGraph(nil)
	g.MustAddVertex("Zebra", nil)
	g.MustAddVertex("Ant", nil)
	g.MustAddVertex("Moth", nil)
	got := g.VertexTypes()
	want := []string{"Ant", "Moth", "Zebra"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VertexTypes = %v, want %v", got, want)
		}
	}
}

func TestProperties(t *testing.T) {
	g := NewGraph(nil)
	v := g.MustAddVertex("Job", Properties{"cpu": int64(42)})
	if got := g.Vertex(v).Prop("cpu"); got != int64(42) {
		t.Errorf("Prop(cpu) = %v, want 42", got)
	}
	if got := g.Vertex(v).Prop("missing"); got != nil {
		t.Errorf("Prop(missing) = %v, want nil", got)
	}
	if err := g.SetVertexProp(v, "community", int64(7)); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(v).Prop("community"); got != int64(7) {
		t.Errorf("SetVertexProp/Prop = %v, want 7", got)
	}
	// SetVertexProp on a vertex created without a bag allocates lazily.
	u := g.MustAddVertex("File", nil)
	if err := g.SetVertexProp(u, "size", int64(1)); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(u).Prop("size"); got != int64(1) {
		t.Errorf("lazy SetVertexProp = %v, want 1", got)
	}
}

// TestSetVertexPropDeclared pins SetVertexProp on a declared property:
// a mis-kinded value is refused with nothing changed, and a declared
// write reads back through the graph read, the typed column accessor
// the prefilter scans, and Save.
func TestSetVertexPropDeclared(t *testing.T) {
	g := NewGraph(columnSchema(t))
	j := g.MustAddVertex("Job", Properties{"CPU": int64(1)})
	f := g.Freeze()
	if err := g.SetVertexProp(j, "CPU", 2.5); err == nil || !strings.Contains(err.Error(), "declared int, holds float64") {
		t.Fatalf("mis-kinded SetVertexProp err = %v", err)
	}
	if got := g.Vertex(j).Prop("CPU"); got != int64(1) {
		t.Fatalf("refused write changed the map: %v", got)
	}
	if err := g.SetVertexProp(j, "CPU", int64(300)); err != nil {
		t.Fatal(err)
	}
	if got, ok := g.DeclaredVertexProp(j, "CPU"); !ok || got != int64(300) {
		t.Errorf("DeclaredVertexProp = %v, %v, want 300", got, ok)
	}
	col, ok := f.Column("Job", "CPU")
	if !ok {
		t.Fatal("Column(Job, CPU) missing")
	}
	if x, ok := col.Int(j); !ok || x != 300 {
		t.Errorf("Int = %d, %v, want 300", x, ok)
	}
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"CPU":300`) {
		t.Errorf("Save lost the write:\n%s", buf.String())
	}
}

func TestEdgeTypeCounts(t *testing.T) {
	g := NewGraph(nil)
	a := g.MustAddVertex("A", nil)
	b := g.MustAddVertex("B", nil)
	g.MustAddEdge(a, b, "X", nil)
	g.MustAddEdge(a, b, "X", nil)
	g.MustAddEdge(b, a, "Y", nil)
	counts := g.EdgeTypeCounts()
	if counts["X"] != 2 || counts["Y"] != 1 {
		t.Errorf("EdgeTypeCounts = %v, want X:2 Y:1", counts)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]string{"A"}, []EdgeType{{From: "A", To: "B", Name: "E"}}); err == nil {
		t.Error("edge to undeclared vertex type accepted")
	}
	if _, err := NewSchema([]string{""}, nil); err == nil {
		t.Error("empty vertex type name accepted")
	}
	dup := EdgeType{From: "A", To: "A", Name: "E"}
	if _, err := NewSchema([]string{"A"}, []EdgeType{dup, dup}); err == nil {
		t.Error("duplicate edge type accepted")
	}
}

func TestSchemaQueries(t *testing.T) {
	s := MustSchema(
		[]string{"Job", "File", "Task"},
		[]EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
			{From: "Job", To: "Task", Name: "SPAWNS"},
		},
	)
	if !s.AllowsEdge("Job", "File", "WRITES_TO") {
		t.Error("AllowsEdge(Job,File,WRITES_TO) = false")
	}
	if s.AllowsEdge("File", "File", "WRITES_TO") {
		t.Error("AllowsEdge(File,File,WRITES_TO) = true")
	}
	from := s.EdgeTypesFrom("Job")
	if len(from) != 2 {
		t.Errorf("EdgeTypesFrom(Job) has %d entries, want 2", len(from))
	}
	src := s.SourceTypes()
	if len(src) != 2 || src[0] != "File" || src[1] != "Job" {
		t.Errorf("SourceTypes = %v, want [File Job]", src)
	}
	if s.IsHomogeneous() {
		t.Error("IsHomogeneous = true for a 3-type schema")
	}
}

func TestSchemaExtend(t *testing.T) {
	s := MustSchema([]string{"Job", "File"}, []EdgeType{{From: "Job", To: "File", Name: "W"}})
	ext, err := s.Extend(nil, []EdgeType{{From: "Job", To: "Job", Name: "CONN_2_JOB_JOB"}})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if !ext.AllowsEdge("Job", "Job", "CONN_2_JOB_JOB") {
		t.Error("extended schema missing connector edge type")
	}
	if !ext.AllowsEdge("Job", "File", "W") {
		t.Error("extended schema lost original edge type")
	}
	// Original schema unchanged.
	if s.AllowsEdge("Job", "Job", "CONN_2_JOB_JOB") {
		t.Error("Extend mutated the receiver")
	}
}

// Property: after any sequence of vertex additions, per-type buckets
// partition the ID space exactly.
func TestVertexBucketsPartitionIDs(t *testing.T) {
	f := func(types []uint8) bool {
		g := NewGraph(nil)
		names := []string{"A", "B", "C", "D"}
		for _, b := range types {
			g.MustAddVertex(names[int(b)%len(names)], nil)
		}
		seen := make(map[VertexID]bool)
		total := 0
		for _, tname := range g.VertexTypes() {
			for _, id := range g.VerticesOfType(tname) {
				if seen[id] {
					return false
				}
				if g.Vertex(id).Type != tname {
					return false
				}
				seen[id] = true
				total++
			}
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for every edge e, e appears exactly once in Out(From) and once
// in In(To); sums of degrees equal edge count.
func TestAdjacencyConsistency(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := NewGraph(nil)
		const n = 10
		for i := 0; i < n; i++ {
			g.MustAddVertex("V", nil)
		}
		for _, p := range pairs {
			from := VertexID(int(p>>8) % n)
			to := VertexID(int(p&0xff) % n)
			g.MustAddEdge(from, to, "E", nil)
		}
		fz := g.Freeze()
		outSum, inSum := 0, 0
		for v := VertexID(0); int(v) < n; v++ {
			outSum += fz.OutDegree(v)
			inSum += fz.InDegree(v)
			for _, eid := range fz.Out(v) {
				if g.Edge(eid).From != v {
					return false
				}
			}
			for _, eid := range fz.In(v) {
				if g.Edge(eid).To != v {
					return false
				}
			}
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
