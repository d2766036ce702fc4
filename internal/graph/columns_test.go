package graph

import (
	"strings"
	"testing"
)

// columnSchema declares one property of every kind on Job.
func columnSchema(t *testing.T) *Schema {
	t.Helper()
	s := MustSchema(
		[]string{"Job", "File"},
		[]EdgeType{{From: "Job", To: "File", Name: "W"}},
	)
	for _, d := range []struct {
		prop string
		kind PropKind
	}{
		{"CPU", PropInt},
		{"load", PropFloat},
		{"name", PropString},
		{"done", PropBool},
	} {
		if err := s.DeclareProperty("Job", d.prop, d.kind); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestColumnsBuiltAtFreeze(t *testing.T) {
	g := NewGraph(columnSchema(t))
	names := []string{"a", "b", "a", "c"}
	for i := 0; i < 4; i++ {
		props := Properties{
			"CPU":  int64(i * 100),
			"load": float64(i) / 2,
			"name": names[i],
			"done": i%2 == 0,
		}
		if i == 3 {
			props = nil // one vertex with no properties at all
		}
		g.MustAddVertex("Job", props)
	}
	g.MustAddVertex("File", Properties{"name": "undeclared-type-prop"})

	f, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	count, bytes := f.ColumnStats()
	if count != 4 {
		t.Fatalf("ColumnStats count = %d, want 4 (Job only; File declares nothing)", count)
	}
	if bytes <= 0 {
		t.Errorf("ColumnStats bytes = %d, want > 0", bytes)
	}

	// Columnar reads are byte-identical to the property map.
	for v := VertexID(0); v < 4; v++ {
		for _, prop := range []string{"CPU", "load", "name", "done"} {
			got, covered := f.VertexPropColumnar(v, prop)
			if !covered {
				t.Fatalf("vertex %d %s: not covered", v, prop)
			}
			if want := g.Vertex(v).Prop(prop); got != want {
				t.Errorf("vertex %d %s: columnar %v (%T) != map %v (%T)", v, prop, got, got, want, want)
			}
		}
		// Undeclared property: not covered, caller falls back to the map.
		if _, covered := f.VertexPropColumnar(v, "extra"); covered {
			t.Errorf("vertex %d: undeclared property reported covered", v)
		}
	}
	// A type with no declarations has no columns.
	if _, covered := f.VertexPropColumnar(4, "name"); covered {
		t.Error("File.name covered without a declaration")
	}

	// Typed handle accessors agree with the boxed values, including
	// string interning ("a" appears twice, dict holds it once).
	col, ok := f.Column("Job", "name")
	if !ok || col.Kind() != PropString {
		t.Fatalf("Column(Job, name) = %v, %v", col, ok)
	}
	for i, want := range names[:3] {
		s, ok := col.Str(VertexID(i))
		if !ok || s != want {
			t.Errorf("Str(%d) = %q, %v, want %q", i, s, ok, want)
		}
	}
	if _, ok := col.Str(3); ok {
		t.Error("Str reported a value for the property-less vertex")
	}
	ints, ok := f.Column("Job", "CPU")
	if !ok {
		t.Fatal("Column(Job, CPU) missing")
	}
	if v, ok := ints.Int(2); !ok || v != 200 {
		t.Errorf("Int(2) = %d, %v, want 200", v, ok)
	}
	if _, ok := f.Column("File", "name"); ok {
		t.Error("Column(File, name) exists without a declaration")
	}
	if _, ok := f.Column("Nope", "x"); ok {
		t.Error("Column on unknown type exists")
	}
}

// TestDeclaredTypeWithoutVerticesHasColumns pins that a declared vertex
// type with no vertices at the freeze still gets (empty) columns, so the
// vertices a later mutation adds are column-covered through the tail.
func TestDeclaredTypeWithoutVerticesHasColumns(t *testing.T) {
	g := NewGraph(columnSchema(t))
	g.MustAddVertex("File", nil)
	f := g.Freeze()
	if count, _ := f.ColumnStats(); count != 4 {
		t.Fatalf("ColumnStats count = %d, want 4 (Job declares 4, has no vertices)", count)
	}
	if got := f.VerticesOfType("Job"); len(got) != 0 {
		t.Fatalf("VerticesOfType(Job) = %v before any Job", got)
	}
	j := g.MustAddVertex("Job", Properties{"CPU": int64(7), "name": "j"})
	if g.Freeze() != f {
		t.Fatal("tail vertex dropped the snapshot")
	}
	for _, prop := range []string{"CPU", "load", "name", "done"} {
		got, covered := f.VertexPropColumnar(j, prop)
		if !covered || got != g.Vertex(j).Prop(prop) {
			t.Errorf("tail Job %s = %v, covered %v; want %v, covered", prop, got, covered, g.Vertex(j).Prop(prop))
		}
	}
	col, ok := f.Column("Job", "CPU")
	if !ok {
		t.Fatal("Column(Job, CPU) missing")
	}
	if v, ok := col.Int(j); !ok || v != 7 {
		t.Errorf("Int(tail Job) = %d, %v, want 7", v, ok)
	}
	if f.VertexTypeOf(j) != "Job" || f.VertexTypeOf(0) != "File" {
		t.Errorf("VertexTypeOf = %q, %q, want Job, File", f.VertexTypeOf(j), f.VertexTypeOf(0))
	}
}

func TestFreezeCheckedRejectsLyingDeclaration(t *testing.T) {
	g := NewGraph(columnSchema(t))
	g.MustAddVertex("Job", Properties{"CPU": 3.5}) // declared PropInt
	if _, err := g.FreezeChecked(); err == nil ||
		!strings.Contains(err.Error(), "declared int, holds float64") {
		t.Fatalf("FreezeChecked err = %v, want declared-kind violation", err)
	}
	// Freeze (the unchecked form) panics rather than returning a stale
	// or partially-built view.
	defer func() {
		if recover() == nil {
			t.Error("Freeze did not panic on a declared-kind violation")
		}
	}()
	g.Freeze()
}

func TestCachedFrozen(t *testing.T) {
	g := NewGraph(nil)
	g.MustAddVertex("V", nil)
	if g.CachedFrozen() != nil {
		t.Fatal("CachedFrozen non-nil before any freeze")
	}
	f := g.Freeze()
	if g.CachedFrozen() != f {
		t.Fatal("CachedFrozen did not return the memoized view")
	}
}

func TestSaveLoadPropertyDecls(t *testing.T) {
	g := NewGraph(columnSchema(t))
	g.MustAddVertex("Job", Properties{"CPU": int64(7), "name": "j"})
	back := roundTrip(t, g)
	decls := back.Schema().PropertyDecls()
	if len(decls) != 4 {
		t.Fatalf("loaded %d property declarations, want 4: %v", len(decls), decls)
	}
	if k, ok := back.Schema().PropertyKind("Job", "CPU"); !ok || k != PropInt {
		t.Errorf("Job.CPU kind = %v, %v, want PropInt", k, ok)
	}
	// Load freezes eagerly, so the columns already exist.
	fz := back.CachedFrozen()
	if fz == nil {
		t.Fatal("loaded graph has no cached frozen view")
	}
	if count, _ := fz.ColumnStats(); count != 4 {
		t.Errorf("loaded graph has %d columns, want 4", count)
	}
}

func TestLoadRejectsMisdeclaredProperty(t *testing.T) {
	src := "S\t[\"Job\"]\t[]\t[{\"type\":\"Job\",\"prop\":\"CPU\",\"kind\":1}]\n" +
		"V\t0\tJob\t{\"CPU\":1}\n" +
		"V\t1\tJob\t{\"CPU\":2.5}\n"
	_, err := Load(strings.NewReader(src))
	if err == nil {
		t.Fatal("misdeclared property loaded without error")
	}
	// The error names the offending line, not just the freeze.
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "declared int") {
		t.Errorf("err = %v, want line-3 declared-kind violation", err)
	}
}
