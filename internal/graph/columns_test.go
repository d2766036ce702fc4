package graph

import (
	"fmt"
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

// TestFreezeCheckedRejectsLyingDeclaration pins the two ways stored
// data can disagree with a declaration. A mis-kinded value fails
// AddVertex, before and after a freeze, naming the first violation in
// property name order, with nothing changed: vertex count, maps and
// columns. A property declared after vertices of its type exist fails
// AddVertex of that type and FreezeChecked, naming it, and Freeze
// panics.
func TestFreezeCheckedRejectsLyingDeclaration(t *testing.T) {
	g := NewGraph(columnSchema(t))
	j := g.MustAddVertex("Job", Properties{"CPU": int64(1), "name": "j"})
	unchanged := func(stage string) {
		t.Helper()
		_, err := g.AddVertex("Job", Properties{"name": 7, "CPU": 3.5})
		if err == nil || !strings.Contains(err.Error(), "Job.CPU declared int, holds float64") {
			t.Fatalf("%s: AddVertex err = %v, want the Job.CPU violation", stage, err)
		}
		if g.NumVertices() != 1 || len(g.VerticesOfType("Job")) != 1 {
			t.Fatalf("%s: rejected vertex landed: |V| = %d", stage, g.NumVertices())
		}
		if got := g.Vertex(j).Prop("CPU"); got != int64(1) {
			t.Fatalf("%s: map CPU = %v, want 1", stage, got)
		}
		for _, c := range g.vtypes[0].cols {
			if len(c.vals) != 1 {
				t.Fatalf("%s: column %s holds %d slots, want 1", stage, c.prop, len(c.vals))
			}
		}
		if got, ok := g.DeclaredVertexProp(j, "name"); !ok || got != "j" {
			t.Fatalf("%s: column name = %v, %v, want j", stage, got, ok)
		}
	}
	unchanged("before freeze")
	f := g.Freeze()
	unchanged("after freeze")
	if tv, _ := f.TailSize(); tv != 0 {
		t.Fatalf("rejected vertex reached the tail: %d", tv)
	}

	// A late declaration: Job has a vertex, so Job.mem would read absent.
	if err := g.Schema().DeclareProperty("Job", "mem", PropInt); err != nil {
		t.Fatal(err)
	}
	const late = "property Job.mem declared after vertices of Job exist"
	if _, err := g.AddVertex("Job", nil); err == nil || !strings.Contains(err.Error(), late) {
		t.Fatalf("AddVertex(Job) err = %v, want %q", err, late)
	}
	if _, err := g.AddVertex("File", nil); err != nil {
		t.Fatalf("AddVertex(File) refused for a Job declaration: %v", err)
	}
	if _, err := g.FreezeChecked(); err == nil || !strings.Contains(err.Error(), late) {
		t.Fatalf("FreezeChecked err = %v, want %q", err, late)
	}
	// Freeze (the unchecked form) panics rather than returning a view
	// that reads Job.mem as absent.
	defer func() {
		if recover() == nil {
			t.Error("Freeze did not panic on a late declaration")
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

// TestDeclaredVertexPropertyReadAllocs pins that reading a declared
// vertex property allocates nothing, on base and tail vertices, through
// the graph read and the typed column accessors: an int64 ≥ 256 (which
// boxing would allocate), a float64 and a string.
func TestDeclaredVertexPropertyReadAllocs(t *testing.T) {
	g := NewGraph(columnSchema(t))
	props := func(i int) Properties {
		return Properties{"CPU": int64(1000 + i), "load": float64(i) + 0.5, "name": fmt.Sprint("job", i)}
	}
	base := g.MustAddVertex("Job", props(0))
	f := g.Freeze()
	tail := g.MustAddVertex("Job", props(1))
	if tv, _ := f.TailSize(); tv != 1 {
		t.Fatalf("tail holds %d vertices, want 1", tv)
	}
	cpu, _ := f.Column("Job", "CPU")
	load, _ := f.Column("Job", "load")
	name, _ := f.Column("Job", "name")
	var sink int64
	for _, v := range []VertexID{base, tail} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, k := range []string{"CPU", "load", "name"} {
				if x, ok := g.DeclaredVertexProp(v, k); ok && x != nil {
					sink++
				}
			}
			x, _ := cpu.Int(v)
			y, _ := load.Float(v)
			s, _ := name.Str(v)
			sink += x + int64(y) + int64(len(s))
		})
		if allocs != 0 {
			t.Errorf("v%d: %v allocations per read, want 0", v, allocs)
		}
	}
	if sink == 0 {
		t.Fatal("reads returned nothing")
	}
}
