package graph

import (
	"sync/atomic"
	"time"
)

// Delta-overlay storage: the append-friendly tail that lets a graph
// mutate after a freeze without invalidating the frozen CSR.
//
// A Frozen is built once over the base graph; the first post-freeze
// mutation attaches an overlay to it and every subsequent AddEdge lands
// in the overlay's per-type delta tail instead of clearing the cached
// snapshot. The Frozen accessors (frozen.go) merge base + tail behind
// the existing interfaces, so the matcher, the algo kernels, and the
// connector DFSes all see one logical graph with no refreeze on the hot
// path. Vertices need no tail: their types, per-type lists and property
// columns are graph storage that AddVertex appends to (columns.go), and
// an added vertex only marks the adjacency rows past the base CSR.
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
// reads against a never-frozen twin graph (the plain Graph accessors)
// and against a twin that compacts after every mutation.

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
// post-freeze mutation. Tail edges are indexed by id - baseNE; vertices
// from baseNV on have no base CSR row. The edge interning table is an
// extended copy of the base table, so the base Frozen's own table stays
// immutable across the compaction swap.
type overlay struct {
	baseNV, baseNE int

	etypes  []string
	etypeID map[string]int32

	etypeOf  []int32 // tail edge -> etypes index
	edgeFrom []VertexID
	edgeTo   []VertexID

	// Merged typed-adjacency runs for every (vertex, edge type) pair a
	// tail edge touched: base run (copied once on first touch) plus the
	// tail edges in insertion order — the same insertion-order
	// subsequence invariant the grouped base index provides.
	outTyped map[typedKey][]EdgeID
	inTyped  map[typedKey][]EdgeID
}

// ensureOverlay attaches (or returns) f's overlay. Called from the
// mutation path only, which never overlaps readers.
func (f *Frozen) ensureOverlay() *overlay {
	if f.ov != nil {
		return f.ov
	}
	ov := &overlay{
		baseNV:   len(f.outOff) - 1,
		baseNE:   len(f.etypeOf),
		etypes:   append([]string(nil), f.etypes...),
		etypeID:  make(map[string]int32, len(f.etypeID)),
		outTyped: make(map[typedKey][]EdgeID),
		inTyped:  make(map[typedKey][]EdgeID),
	}
	for t, id := range f.etypeID {
		ov.etypeID[t] = id
	}
	f.ov = ov
	return ov
}

// overlayAddEdge lands the freshly appended edge id in f's tail: type
// interning, flat endpoints, and both endpoints' merged typed runs.
func (f *Frozen) overlayAddEdge(id EdgeID) {
	ov := f.ensureOverlay()
	e := &f.g.edges[id]
	t, ok := ov.etypeID[e.Type]
	if !ok {
		t = int32(len(ov.etypes))
		ov.etypeID[e.Type] = t
		ov.etypes = append(ov.etypes, e.Type)
	}
	ov.etypeOf = append(ov.etypeOf, t)
	ov.edgeFrom = append(ov.edgeFrom, e.From)
	ov.edgeTo = append(ov.edgeTo, e.To)
	ov.appendTypedRun(f, true, e.From, t, id)
	ov.appendTypedRun(f, false, e.To, t, id)
}

// appendTypedRun extends the merged (v, t) run with id, copying the
// base run on first touch. The merged run stays the insertion-order
// subsequence of the merged row: base edges precede all tail edges.
func (ov *overlay) appendTypedRun(f *Frozen, out bool, v VertexID, t int32, id EdgeID) {
	m := ov.outTyped
	if !out {
		m = ov.inTyped
	}
	k := typedKey{v: v, t: t}
	run, ok := m[k]
	if !ok && int(v) < ov.baseNV {
		var base []EdgeID
		if out {
			base = typedRun(f.outGroupOff, f.outGroups, f.outOff, f.outTyped, v, t)
		} else {
			base = typedRun(f.inGroupOff, f.inGroups, f.inOff, f.inTyped, v, t)
		}
		run = append(make([]EdgeID, 0, len(base)+1), base...)
	}
	m[k] = append(run, id)
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
	if len(g.vertices)-ov.baseNV+len(ov.etypeOf) < g.compactionThreshold(ov) {
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
	return len(f.g.vertices) - f.ov.baseNV, len(f.ov.etypeOf)
}
