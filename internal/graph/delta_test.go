package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// TestDeltaOverlayMatchesFreshFreeze drives randomized interleaved
// mutations into a frozen graph (overlay path), recording them in the
// oracle's edge list, and checks every accessor after each burst. The
// same mutations are also checked after a forced compaction — the
// folded base must read identically.
func TestDeltaOverlayMatchesFreshFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ref := randomFrozenGraph(t, 3, 60, 240)

	f := g.Freeze()
	builds := CSRBuilds()
	vtypes := []string{"Job", "File", "Task", "Machine", "User"} // User: tail-only type
	etypes := []string{"W", "R", "T", "X"}                       // X: tail-only type
	for burst := 0; burst < 8; burst++ {
		for i := 0; i < 25; i++ {
			if rng.Intn(3) == 0 {
				ref.addVertex(g, vtypes[rng.Intn(len(vtypes))])
			} else {
				from := VertexID(rng.Intn(g.NumVertices()))
				to := VertexID(rng.Intn(g.NumVertices()))
				ref.addEdge(g, from, to, etypes[rng.Intn(len(etypes))], nil)
			}
		}
		if got := g.Freeze(); got != f {
			t.Fatalf("burst %d: snapshot pointer changed without compaction", burst)
		}
		assertFrozenMatchesList(t, f, ref)
	}
	if got := CSRBuilds(); got != builds {
		t.Fatalf("overlay bursts rebuilt the CSR %d times", got-builds)
	}
	if tv, te := f.TailSize(); tv+te == 0 {
		t.Fatal("no tail accumulated")
	}

	// Fold and re-verify: the compacted base must read identically.
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	nf := g.Freeze()
	if nf == f {
		t.Fatal("Compact did not swap in a fresh snapshot")
	}
	if tv, te := nf.TailSize(); tv != 0 || te != 0 {
		t.Fatalf("compacted snapshot has tail (%d, %d)", tv, te)
	}
	assertFrozenMatchesList(t, nf, ref)
	if g.Compactions() == 0 || CompactionsTotal() == 0 {
		t.Fatal("compaction counters did not advance")
	}
	if LastCompactionDuration() <= 0 {
		t.Fatal("last-compaction duration not recorded")
	}
}

// TestDeltaOverlayColumns pins tail property reads: declared columns
// cover tail vertices (typed accessors and VertexPropColumnar match the
// property map, presence included), undeclared keys are not covered,
// and ColumnStats grows with the tail.
func TestDeltaOverlayColumns(t *testing.T) {
	s := MustSchema([]string{"Job", "File"}, []EdgeType{
		{From: "Job", To: "File", Name: "W"},
	})
	if err := s.DeclareProperty("Job", "cpu", PropInt); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("Job", "load", PropFloat); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("Job", "pool", PropString); err != nil {
		t.Fatal(err)
	}
	if err := s.DeclareProperty("Job", "prod", PropBool); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(s)
	g.MustAddVertex("Job", Properties{"cpu": int64(4), "load": 0.5, "pool": "a", "prod": true})
	g.MustAddVertex("File", nil)
	f := g.Freeze()
	_, baseBytes := f.ColumnStats()

	// Tail vertices: full bag, partial bag, empty bag.
	tail := []VertexID{
		g.MustAddVertex("Job", Properties{"cpu": int64(16), "load": 2.25, "pool": "b", "prod": false}),
		g.MustAddVertex("Job", Properties{"cpu": int64(8)}),
		g.MustAddVertex("Job", nil),
	}
	if g.Freeze() != f {
		t.Fatal("tail vertices dropped the snapshot")
	}
	for _, v := range tail {
		for _, key := range []string{"cpu", "load", "pool", "prod"} {
			want := g.Vertex(v).Prop(key)
			got, covered := f.VertexPropColumnar(v, key)
			if !covered {
				t.Fatalf("v%d %s not covered", v, key)
			}
			if got != want {
				t.Fatalf("v%d %s = %v, want %v", v, key, got, want)
			}
		}
		if _, covered := f.VertexPropColumnar(v, "undeclared"); covered {
			t.Fatalf("v%d: undeclared key covered", v)
		}
	}
	// Typed column handles over mixed base+tail candidates.
	jobs := f.VerticesOfType("Job")
	for _, tc := range []struct {
		key  string
		read func(PropColumn, VertexID) (any, bool)
	}{
		{"cpu", func(pc PropColumn, v VertexID) (any, bool) { x, ok := pc.Int(v); return x, ok }},
		{"load", func(pc PropColumn, v VertexID) (any, bool) { x, ok := pc.Float(v); return x, ok }},
		{"pool", func(pc PropColumn, v VertexID) (any, bool) { x, ok := pc.Str(v); return x, ok }},
		{"prod", func(pc PropColumn, v VertexID) (any, bool) { x, ok := pc.Bool(v); return x, ok }},
	} {
		pc, ok := f.Column("Job", tc.key)
		if !ok {
			t.Fatalf("Column(Job, %s) not resolved", tc.key)
		}
		for _, v := range jobs {
			want := g.Vertex(v).Prop(tc.key)
			got, present := tc.read(pc, v)
			if present != (want != nil) {
				t.Fatalf("v%d %s: present=%v, want %v", v, tc.key, present, want != nil)
			}
			if present && got != want {
				t.Fatalf("v%d %s = %v, want %v", v, tc.key, got, want)
			}
		}
	}
	if _, bytes := f.ColumnStats(); bytes <= baseBytes {
		t.Fatalf("ColumnStats bytes did not grow with the tail (%d <= %d)", bytes, baseBytes)
	}
}

// TestDeltaTailPropValidation pins mutation-time validation: a declared
// property holding the wrong dynamic type is rejected before anything
// mutates, so the tail can never poison a later compaction.
func TestDeltaTailPropValidation(t *testing.T) {
	s := MustSchema([]string{"Job"}, nil)
	if err := s.DeclareProperty("Job", "cpu", PropInt); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(s)
	g.MustAddVertex("Job", Properties{"cpu": int64(1)})
	g.Freeze()
	nv := g.NumVertices()
	_, err := g.AddVertex("Job", Properties{"cpu": "lots"})
	if err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("lying tail property accepted: %v", err)
	}
	if g.NumVertices() != nv {
		t.Fatal("rejected mutation landed anyway")
	}
	if err := g.Compact(); err != nil {
		t.Fatalf("compaction failed after rejected mutation: %v", err)
	}
}

// TestCompactionThreshold pins automatic folding: once the tail crosses
// SetCompactionThreshold, the mutation path compacts and the snapshot
// pointer swaps.
func TestCompactionThreshold(t *testing.T) {
	g := NewGraph(nil)
	a := g.MustAddVertex("V", nil)
	g.MustAddVertex("V", nil)
	f := g.Freeze()
	g.SetCompactionThreshold(10)
	for i := 0; i < 9; i++ {
		g.MustAddEdge(a, 1, "E", nil)
	}
	if g.Freeze() != f {
		t.Fatal("compacted below threshold")
	}
	g.MustAddEdge(a, 1, "E", nil) // tenth tail entry: crosses the threshold
	nf := g.Freeze()
	if nf == f {
		t.Fatal("threshold crossing did not compact")
	}
	if tv, te := nf.TailSize(); tv != 0 || te != 0 {
		t.Fatalf("post-compaction tail (%d, %d)", tv, te)
	}
	if nf.NumEdges() != 10 {
		t.Fatalf("compacted |E| = %d, want 10", nf.NumEdges())
	}
	if g.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", g.Compactions())
	}
}

// TestCompactNoops pins Compact's no-op cases: no snapshot, and a
// snapshot without a tail.
func TestCompactNoops(t *testing.T) {
	g := NewGraph(nil)
	g.MustAddVertex("V", nil)
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if g.Compactions() != 0 {
		t.Fatal("compacted without a snapshot")
	}
	f := g.Freeze()
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if g.Compactions() != 0 || g.Freeze() != f {
		t.Fatal("compacted a tail-less snapshot")
	}
}
