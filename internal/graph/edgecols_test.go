package graph

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// edgeColumnSchema declares int64 ts on W and R, and nothing on X.
func edgeColumnSchema(t testing.TB) *Schema {
	t.Helper()
	s := MustSchema([]string{"Job", "File"}, []EdgeType{
		{From: "Job", To: "File", Name: "W"},
		{From: "File", To: "Job", Name: "R"},
		{From: "Job", To: "Job", Name: "X"},
	})
	for _, et := range []string{"W", "R"} {
		if err := s.DeclareProperty(et, "ts", PropInt); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// mapTwin copies g into a schemaless graph whose edges carry every
// property in their maps — the reference the column reads must match.
func mapTwin(g *Graph) *Graph {
	tw := NewGraph(nil)
	g.EachVertex(func(v *Vertex) { tw.MustAddVertex(v.Type, v.Props) })
	g.EachEdge(func(e Edge) { tw.MustAddEdge(e.From, e.To, e.Type, g.EdgeProps(e.ID)) })
	return tw
}

// assertEdgePropsMatch compares every edge property read of g and
// twin, through the graph and a resolved handle.
func assertEdgePropsMatch(t *testing.T, g, twin *Graph, keys ...string) {
	t.Helper()
	if g.NumEdges() != twin.NumEdges() {
		t.Fatalf("|E| = %d, twin %d", g.NumEdges(), twin.NumEdges())
	}
	for _, k := range keys {
		h := g.EdgeProperty(k)
		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			want := twin.Edge(e).Props[k]
			if got := g.EdgeProp(e, k); got != want {
				t.Errorf("edge %d %s: EdgeProp = %v (%T), twin %v (%T)", e, k, got, got, want, want)
			}
			if got := h.Get(e); got != want {
				t.Errorf("edge %d %s: handle Get = %v, twin %v", e, k, got, want)
			}
			wi, wok := want.(int64)
			if gi, gok := h.Int(e); gi != wi || gok != wok {
				t.Errorf("edge %d %s: Int = %v/%v, twin %v/%v", e, k, gi, gok, wi, wok)
			}
		}
	}
}

// TestEdgeColumnKeepsUndeclaredKeys pins AddEdge's split: declared
// keys go to the column, undeclared ones stay in a map of their own,
// the caller's map is never kept or modified when it held a declared
// key, and an all-declared edge keeps no map.
func TestEdgeColumnKeepsUndeclaredKeys(t *testing.T) {
	g := NewGraph(edgeColumnSchema(t))
	j, f := g.MustAddVertex("Job", nil), g.MustAddVertex("File", nil)

	mixed := Properties{"ts": int64(3), "note": "x"}
	e := g.MustAddEdge(j, f, "W", mixed)
	if want := (Properties{"ts": int64(3), "note": "x"}); !reflect.DeepEqual(mixed, want) {
		t.Errorf("caller's map changed to %v", mixed)
	}
	if want := (Properties{"note": "x"}); !reflect.DeepEqual(g.Edge(e).Props, want) {
		t.Errorf("Props = %v, want only the undeclared key", g.Edge(e).Props)
	}
	mixed["note"] = "changed"
	if g.EdgeProp(e, "note") != "x" {
		t.Error("the edge shares the caller's map")
	}

	declared := Properties{"ts": int64(4)}
	e = g.MustAddEdge(f, j, "R", declared)
	if g.Edge(e).Props != nil {
		t.Errorf("all-declared edge keeps map %v", g.Edge(e).Props)
	}
	if g.EdgeProp(e, "ts") != int64(4) {
		t.Errorf("ts = %v, want 4", g.EdgeProp(e, "ts"))
	}

	// A type that declares nothing keeps the caller's map as before.
	undeclared := Properties{"ts": 1.5}
	e = g.MustAddEdge(j, j, "X", undeclared)
	if reflect.ValueOf(g.Edge(e).Props).Pointer() != reflect.ValueOf(undeclared).Pointer() {
		t.Error("undeclared-only map was copied")
	}
	if g.EdgeProp(e, "ts") != 1.5 {
		t.Errorf("undeclared ts = %v", g.EdgeProp(e, "ts"))
	}
	if _, ok := g.EdgeProperty("ts").Int(e); ok {
		t.Error("Int reports a float64 map value")
	}

	// Absent and nil declared values read as absent.
	e = g.MustAddEdge(j, f, "W", Properties{"ts": nil})
	if g.Edge(e).Props != nil || g.EdgeProp(e, "ts") != nil {
		t.Errorf("nil ts: Props %v, EdgeProp %v", g.Edge(e).Props, g.EdgeProp(e, "ts"))
	}
	e = g.MustAddEdge(j, f, "W", nil)
	if g.EdgeProp(e, "ts") != nil {
		t.Error("absent ts reads a value")
	}
	assertEdgePropsMatch(t, g, mapTwin(g), "ts", "note")
}

// TestEdgeColumnRejectsMiskindedValue pins that AddEdge checks declared
// values before mutating, before and after a freeze.
func TestEdgeColumnRejectsMiskindedValue(t *testing.T) {
	g := NewGraph(edgeColumnSchema(t))
	j, f := g.MustAddVertex("Job", nil), g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(1)})
	check := func(phase string) {
		t.Helper()
		ne := g.NumEdges()
		_, err := g.AddEdge(j, f, "W", Properties{"ts": 2.5, "note": "x"})
		if err == nil || !strings.Contains(err.Error(), "declared int, holds float64") {
			t.Errorf("%s: err = %v, want a declared-kind error", phase, err)
		}
		if g.NumEdges() != ne {
			t.Errorf("%s: the refused edge was stored", phase)
		}
		if fz := g.CachedFrozen(); fz != nil && (fz.NumEdges() != ne || fz.OutDegree(j) != ne) {
			t.Errorf("%s: the refused edge reached the snapshot", phase)
		}
	}
	check("before freeze")
	g.Freeze()
	check("after freeze")
	if _, err := g.AddEdge(j, f, "W", Properties{"ts": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if g.EdgeProp(1, "ts") != int64(2) {
		t.Errorf("tail ts = %v", g.EdgeProp(1, "ts"))
	}
}

// TestEdgeColumnDeclarationKinds pins that every edge type declaring a
// name declares one kind, since they share its column.
func TestEdgeColumnDeclarationKinds(t *testing.T) {
	s := edgeColumnSchema(t)
	if err := s.DeclareProperty("X", "ts", PropFloat); err == nil {
		t.Error("a second edge type declared ts with another kind")
	}
	if err := s.DeclareProperty("W", "ts", PropString); err == nil {
		t.Error("W redeclared ts with another kind")
	}
	if err := s.DeclareProperty("X", "ts", PropInt); err != nil {
		t.Errorf("same-kind declaration refused: %v", err)
	}
	// A vertex type may use the name with any kind.
	if err := s.DeclareProperty("Job", "ts", PropString); err != nil {
		t.Errorf("vertex declaration refused: %v", err)
	}
}

// TestEdgeColumnAdoptRefusesKindConflict pins that AdoptProperties
// keeps DeclareProperty's rule: an adopted edge declaration whose kind
// differs from one another edge type already declares is refused, so
// no two edge types can share a column under two kinds.
func TestEdgeColumnAdoptRefusesKindConflict(t *testing.T) {
	view := MustSchema([]string{"Job", "File"}, []EdgeType{
		{From: "Job", To: "File", Name: "W"},
		{From: "Job", To: "Job", Name: "C"},
	})
	if err := view.DeclareProperty("C", "ts", PropFloat); err != nil {
		t.Fatal(err)
	}
	err := view.AdoptProperties(edgeColumnSchema(t))
	if err == nil || !strings.Contains(err.Error(), `edge property "ts"`) {
		t.Fatalf("conflicting adopt: err = %v", err)
	}
	if k, ok := view.PropertyKind("W", "ts"); ok {
		t.Errorf("conflicting declaration adopted as %s", k)
	}
	ok := MustSchema([]string{"Job", "File"}, []EdgeType{{From: "Job", To: "File", Name: "W"}})
	if err := ok.AdoptProperties(edgeColumnSchema(t)); err != nil {
		t.Fatal(err)
	}
	if k, found := ok.PropertyKind("W", "ts"); !found || k != PropInt {
		t.Errorf("W ts adopted as %v/%v", k, found)
	}
}

// TestEdgeColumnTailAndCompact pins column reads for edges added after
// a freeze (the delta tail) and after the tail folds, and a declaration
// made after edges were stored.
func TestEdgeColumnTailAndCompact(t *testing.T) {
	g := NewGraph(edgeColumnSchema(t))
	g.SetCompactionThreshold(1 << 20)
	var jobs, files []VertexID
	for i := 0; i < 4; i++ {
		jobs = append(jobs, g.MustAddVertex("Job", nil))
		files = append(files, g.MustAddVertex("File", nil))
	}
	add := func(i int) {
		j, f := jobs[i%4], files[(i+1)%4]
		props := Properties{"ts": int64(i * 1000)}
		if i%3 == 0 {
			props["w"] = float64(i) / 2
		}
		g.MustAddEdge(j, f, "W", props)
		if i%2 == 0 {
			g.MustAddEdge(f, jobs[(i+2)%4], "R", Properties{"ts": int64(i)})
		}
		g.MustAddEdge(j, jobs[(i+3)%4], "X", Properties{"ts": int64(-i)})
	}
	for i := 0; i < 8; i++ {
		add(i)
	}
	g.Freeze()
	for i := 8; i < 16; i++ {
		add(i)
	}
	if _, te := g.CachedFrozen().TailSize(); te == 0 {
		t.Fatal("no tail edges")
	}
	assertEdgePropsMatch(t, g, mapTwin(g), "ts", "w")
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	assertEdgePropsMatch(t, g, mapTwin(g), "ts", "w")

	// X's ts was stored in maps; declaring it now leaves those in place
	// and sends new X edges to the column — both read the same.
	if err := g.Schema().DeclareProperty("X", "ts", PropInt); err != nil {
		t.Fatal(err)
	}
	for i := 16; i < 20; i++ {
		add(i)
	}
	last := g.Edge(EdgeID(g.NumEdges() - 1))
	if last.Type != "X" || last.Props != nil {
		t.Fatalf("new X edge keeps map %v", last.Props)
	}
	assertEdgePropsMatch(t, g, mapTwin(g), "ts", "w")
}

// TestEdgeColumnCopy pins AddEdgeFrom: under a shared schema, and into
// a schemaless graph, the copy moves column values and shares the
// undeclared map; a graph with another schema, or a schemaless graph
// whose column has another kind, stores the merged map as AddEdge would.
func TestEdgeColumnCopy(t *testing.T) {
	g := NewGraph(edgeColumnSchema(t))
	j, f := g.MustAddVertex("Job", nil), g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(7), "note": "n"})
	g.MustAddEdge(f, j, "R", Properties{"ts": int64(8)})
	g.MustAddEdge(j, j, "X", Properties{"ts": int64(9)})

	same := NewGraph(g.Schema())
	plain := NewGraph(nil)
	other := NewGraph(edgeColumnSchema(t))
	for _, dst := range []*Graph{same, plain, other} {
		dst.MustAddVertex("Job", nil)
		dst.MustAddVertex("File", nil)
		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			x := g.Edge(e)
			if _, err := dst.AddEdgeFrom(g, e, x.From, x.To); err != nil {
				t.Fatal(err)
			}
		}
		assertEdgePropsMatch(t, dst, mapTwin(g), "ts", "note")
	}
	shares := func(dst *Graph) bool {
		return reflect.ValueOf(dst.Edge(0).Props).Pointer() == reflect.ValueOf(g.Edge(0).Props).Pointer()
	}
	for name, dst := range map[string]*Graph{"same-schema": same, "schemaless": plain} {
		if dst.Edge(1).Props != nil || !shares(dst) {
			t.Errorf("%s copy built maps", name)
		}
	}
	if shares(other) {
		t.Error("other-schema copy shares the source's map")
	}

	// A float64 ts column copied into plain, whose ts column is int64.
	fs := MustSchema([]string{"Job"}, []EdgeType{{From: "Job", To: "Job", Name: "X"}})
	if err := fs.DeclareProperty("X", "ts", PropFloat); err != nil {
		t.Fatal(err)
	}
	fg := NewGraph(fs)
	fg.MustAddEdge(fg.MustAddVertex("Job", nil), 0, "X", Properties{"ts": 2.5})
	id, err := plain.AddEdgeFrom(fg, 0, j, j)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Properties{"ts": 2.5}); !reflect.DeepEqual(plain.Edge(id).Props, want) {
		t.Errorf("kind-conflicting copy Props = %v, want %v", plain.Edge(id).Props, want)
	}
	if got := plain.EdgeProp(id, "ts"); got != 2.5 {
		t.Errorf("kind-conflicting copy ts = %v", got)
	}
}

// TestEdgeColumnSaveRoundTrip pins graph.Save's edge lines: the column
// values merged with the maps write the bytes json.Marshal writes for
// the merged map (the schemaless twin's lines), and Load(Save(g))
// saves byte-identically.
func TestEdgeColumnSaveRoundTrip(t *testing.T) {
	g := NewGraph(edgeColumnSchema(t))
	j := g.MustAddVertex("Job", Properties{"name": "j<&>"})
	f := g.MustAddVertex("File", nil)
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(-7), "a": "<b>", "z": 1.5e-9})
	g.MustAddEdge(f, j, "R", Properties{"ts": int64(1 << 40)})
	g.MustAddEdge(f, j, "R", nil)
	g.MustAddEdge(j, j, "X", Properties{"ts": 2.5, "ok": true})
	g.Freeze()
	g.MustAddEdge(j, f, "W", Properties{"ts": int64(3), "u": "tail"})

	save := func(x *Graph) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := Save(&buf, x); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	records := func(b []byte) string {
		_, rest, _ := bytes.Cut(b, []byte("\n")) // drop the S header
		return string(rest)
	}
	got := save(g)
	if want := save(mapTwin(g)); records(got) != string(want) {
		t.Errorf("V/E lines differ from the map twin's:\n%s\nwant:\n%s", records(got), want)
	}
	back, err := Load(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if again := save(back); !bytes.Equal(again, got) {
		t.Errorf("Load(Save(g)) saves differently:\n%s\nwant:\n%s", again, got)
	}
	assertEdgePropsMatch(t, back, mapTwin(g), "ts", "a", "z", "ok", "u")

	bad := strings.Replace(string(got), `{"ts":3,"u":"tail"}`, `{"ts":3.5,"u":"tail"}`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "declared int") {
		t.Errorf("Load of a mis-kinded edge value: err = %v", err)
	}
}

// TestDeclaredEdgePropertyBytes is the size guard on the column store:
// 100k edges carrying a declared int64 ts may cost at most 16 B/edge of
// live heap over the same edges with no properties (a map per edge cost
// about 330).
func TestDeclaredEdgePropertyBytes(t *testing.T) {
	const nv, ne = 1000, 100_000
	s := MustSchema([]string{"V"}, []EdgeType{{From: "V", To: "V", Name: "E"}})
	if err := s.DeclareProperty("E", "ts", PropInt); err != nil {
		t.Fatal(err)
	}
	// build returns the live heap a graph of ne edges holds.
	build := func(withTS bool) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g := NewGraph(s)
		for i := 0; i < nv; i++ {
			g.MustAddVertex("V", nil)
		}
		for i := 0; i < ne; i++ {
			var props Properties
			if withTS {
				// A fresh map per edge, as Load passes: only the column
				// may keep its value.
				props = Properties{"ts": int64(i) << 20}
			}
			g.MustAddEdge(VertexID(i%nv), VertexID((i*7+1)%nv), "E", props)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(g)
		return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	}
	plain := build(false)
	declared := build(true)
	perEdge := (declared - plain) / ne
	t.Logf("a declared int64 ts costs %.1f B/edge of live heap", perEdge)
	if perEdge > 16 {
		t.Errorf("a declared int64 ts costs %.1f B/edge of live heap, want <= 16 (plain %.0f B, declared %.0f B)", perEdge, plain, declared)
	}
}
