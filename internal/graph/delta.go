package graph

import (
	"sync/atomic"
	"time"

	"kaskade/internal/bitset"
)

// Delta-overlay storage: the append-friendly tail that lets a graph
// mutate after a freeze without invalidating the frozen CSR.
//
// A Frozen is built once over the base graph; the first post-freeze
// mutation attaches an overlay to it and every subsequent AddEdge lands
// in the overlay's merged rows instead of clearing the cached snapshot.
// The Frozen accessors (frozen.go) merge base + tail behind the
// existing interfaces, so the matcher, the algo kernels, and the
// connector DFSes all see one logical graph with no refreeze on the hot
// path. A tail edge's endpoints and type are the graph's edge arrays,
// which every snapshot reads, so the overlay holds adjacency only.
// Vertices need no tail either: their types, per-type lists and
// property columns are graph storage that AddVertex appends to
// (columns.go), and an added vertex only marks the adjacency rows past
// the base CSR.
// When the tail outgrows its threshold, Compact folds it into a fresh
// base CSR — one O(V+E) build per burst instead of one per mutation.
//
// The overlay leans on the same contract the rest of the package does:
// mutation never runs concurrently with readers. Mutations therefore
// build the overlay's merged structures eagerly with plain writes; the
// only cross-phase handoffs are the graph's frozen pointer (an
// atomic.Pointer, swapped by compaction) and the process-wide counters
// below, which concurrent query workers do update.
//
// Compaction is the only rebuild. The equivalence suites pin overlay
// reads against a naive adjacency the tests build from their own list
// of added edges (TestFrozenMatchesEdgeList) and against a twin that
// compacts after every mutation.

// Process-wide delta counters, mirroring csrBuilds/CSRBuilds: overlay-
// resolved reads (a query touched the tail or a merged row), compaction
// folds, and the duration of the most recent fold. Queries read
// concurrently, so these are typed atomics.
var (
	overlayReads     atomic.Int64
	compactionsTotal atomic.Int64
	lastCompactionNS atomic.Int64
)

// OverlayReads returns the process-wide count of frozen-accessor reads
// that were resolved through a delta overlay (tail edges, merged
// adjacency rows) rather than the base CSR.
func OverlayReads() int64 { return overlayReads.Load() }

// CompactionsTotal returns the process-wide count of tail compactions
// (overlay folds into a fresh base CSR).
func CompactionsTotal() int64 { return compactionsTotal.Load() }

// LastCompactionDuration returns how long the most recent compaction's
// CSR rebuild took (zero before any compaction).
func LastCompactionDuration() time.Duration {
	return time.Duration(lastCompactionNS.Load())
}

// typedKey addresses one merged typed-adjacency run: vertex v's edges
// of interned type t.
type typedKey struct {
	v VertexID
	t int32
}

// overlay is the delta tail attached to a Frozen after its first
// post-freeze mutation: edges from baseNE on and vertices from baseNV
// on are in the tail, and vertices past baseNV have no base CSR row.
type overlay struct {
	baseNV, baseNE int
	out, in        tail
}

// tail is one direction's merged adjacency. merged marks the vertices
// that read a merged row: every base vertex a tail edge touched, and
// every tail vertex (which has no base row). A merged row is the base
// row, copied on first touch, then the vertex's tail edges in insertion
// order; typed holds likewise the run of each edge type a tail edge
// touched at the vertex, so a run stays the insertion-order subsequence
// of the merged row.
type tail struct {
	merged bitset.Set
	rows   map[VertexID][]EdgeID
	typed  map[typedKey][]EdgeID
}

// merges reports whether v reads a merged row: one bit test, so an
// untouched base vertex pays no map lookup.
func (t *tail) merges(v VertexID) bool { return t.merged.Has(int(v)) }

// read returns v's merged row, counted as an overlay read.
func (t *tail) read(v VertexID) []EdgeID {
	overlayReads.Add(1)
	return t.rows[v]
}

// readTyped returns the merged run of v's edges of type et. ok=false
// means the base index holds the run: v is a base vertex and no tail
// edge of type et touched it.
func (ov *overlay) readTyped(t *tail, v VertexID, et int32) (run []EdgeID, ok bool) {
	if run, ok := t.typed[typedKey{v: v, t: et}]; ok {
		overlayReads.Add(1)
		return run, true
	}
	return nil, int(v) >= ov.baseNV
}

// ensureOverlay attaches (or returns) f's overlay. Called from the
// mutation path only, which never overlaps readers.
func (f *Frozen) ensureOverlay() *overlay {
	if f.ov == nil {
		nv := len(f.out.off) - 1
		f.ov = &overlay{baseNV: nv, baseNE: len(f.out.edges), out: newTail(nv), in: newTail(nv)}
	}
	return f.ov
}

func newTail(nv int) tail {
	return tail{merged: bitset.New(nv), rows: make(map[VertexID][]EdgeID), typed: make(map[typedKey][]EdgeID)}
}

// overlayAddVertex marks the freshly added vertex id, which has no base
// row, as reading its (so far empty) merged rows.
func (f *Frozen) overlayAddVertex(id VertexID) {
	ov := f.ensureOverlay()
	for _, t := range []*tail{&ov.out, &ov.in} {
		t.merged = growTo(t.merged, int(id)>>6+1)
		t.merged.Add(int(id))
	}
}

// overlayAddEdge lands the freshly appended edge id in f's tail: both
// endpoints' merged rows and typed runs.
func (f *Frozen) overlayAddEdge(id EdgeID) {
	ov := f.ensureOverlay()
	g := f.g
	et := g.etypeOf[id]
	ov.out.add(ov.baseNV, &f.out, g.edgeFrom[id], et, id)
	ov.in.add(ov.baseNV, &f.in, g.edgeTo[id], et, id)
}

// add appends tail edge id, of type et, to v's merged row and run,
// copying v's base row and run on first touch (a vertex from baseNV on
// has none).
func (t *tail) add(baseNV int, base *adjacency, v VertexID, et int32, id EdgeID) {
	inBase := int(v) < baseNV
	row, ok := t.rows[v]
	if !ok && inBase {
		t.merged.Add(int(v))
		row = append(make([]EdgeID, 0, base.off[v+1]-base.off[v]+1), base.row(v)...)
	}
	t.rows[v] = append(row, id)
	k := typedKey{v: v, t: et}
	run, ok := t.typed[k]
	if !ok && inBase {
		b := base.typedRun(v, et)
		run = append(make([]EdgeID, 0, len(b)+1), b...)
	}
	t.typed[k] = append(run, id)
}

// SetCompactionThreshold overrides the tail size (vertices + edges) at
// which a mutation triggers compaction. n <= 0 restores the default:
// a quarter of the base size, but at least 256.
func (g *Graph) SetCompactionThreshold(n int) { g.compactAt = n }

// defaultCompactMin keeps tiny graphs from compacting on every handful
// of mutations.
const defaultCompactMin = 256

func (g *Graph) compactionThreshold(ov *overlay) int {
	if g.compactAt > 0 {
		return g.compactAt
	}
	th := (ov.baseNV + ov.baseNE) / 4
	if th < defaultCompactMin {
		th = defaultCompactMin
	}
	return th
}

// maybeCompact folds the tail when it exceeds the threshold. Called at
// the end of each overlay mutation, i.e. on the mutation path — queries
// between mutations never pay for it.
func (g *Graph) maybeCompact(f *Frozen) {
	ov := f.ov
	if ov == nil {
		return
	}
	if len(g.vertices)-ov.baseNV+g.NumEdges()-ov.baseNE < g.compactionThreshold(ov) {
		return
	}
	_ = g.Compact()
}

// Compact folds the current snapshot's tail into a fresh base CSR and
// swaps it in atomically. A no-op when there is no snapshot or no tail.
// The rebuild reads only adjacency and edge types, so it cannot fail:
// the error is always nil.
func (g *Graph) Compact() error {
	f := g.frozen.Load()
	if f == nil || f.ov == nil {
		return nil
	}
	start := time.Now()
	g.frozen.Store(buildFrozen(g))
	g.compactions.Add(1)
	compactionsTotal.Add(1)
	lastCompactionNS.Store(time.Since(start).Nanoseconds())
	return nil
}

// Compactions returns how many times this graph's tail has been folded
// into a fresh base CSR. The workload catalog folds this into its epoch
// so prepared plans and response caches refresh at compaction
// granularity rather than per mutation.
func (g *Graph) Compactions() uint64 { return g.compactions.Load() }

// TailSize reports the snapshot's delta tail: vertices and edges that
// landed after the base CSR was built (0, 0 without an overlay).
func (f *Frozen) TailSize() (verts, edges int) {
	if f.ov == nil {
		return 0, 0
	}
	return len(f.g.vertices) - f.ov.baseNV, f.g.NumEdges() - f.ov.baseNE
}
