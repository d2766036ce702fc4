package graph

import (
	"sync/atomic"
	"time"
)

// Delta-overlay storage: the append-friendly tail that lets a graph
// mutate after a freeze without invalidating the frozen CSR.
//
// A Frozen is built once over the base graph; the first post-freeze
// mutation attaches an overlay to it and every subsequent AddVertex/
// AddEdge lands in the overlay's per-type delta tail instead of
// clearing the cached snapshot. The Frozen accessors (frozen.go,
// columns.go) merge base + tail behind the existing interfaces, so the
// matcher, the predicate prefilter, the algo kernels, and the connector
// DFSes all see one logical graph with no refreeze on the hot path.
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
// that were resolved through a delta overlay (tail vertices/edges,
// merged adjacency rows, tail column slots) rather than the base CSR.
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

// tailColumn extends one base property column over the tail vertices of
// its type. Slots are tail-local (assigned in tail insertion order per
// type); vals holds the boxed originals with nil meaning absent, which
// doubles as the presence test. Strings are stored directly rather than
// interned — the tail is small and short-lived by design.
type tailColumn struct {
	vals   []any
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
}

// overlay is the delta tail attached to a Frozen after its first
// post-freeze mutation. Tail vertices/edges are indexed by
// (id - baseNV) / (id - baseNE); interning tables are extended copies
// of the base tables, so the base Frozen's own tables stay immutable
// across the compaction swap.
type overlay struct {
	baseNV, baseNE int

	vtypes  []string
	vtypeID map[string]int32
	etypes  []string
	etypeID map[string]int32

	vtypeOf  []int32 // tail vertex -> vtypes index
	etypeOf  []int32 // tail edge -> etypes index
	edgeFrom []VertexID
	edgeTo   []VertexID

	// Merged typed-adjacency runs for every (vertex, edge type) pair a
	// tail edge touched: base run (copied once on first touch) plus the
	// tail edges in insertion order — the same insertion-order
	// subsequence invariant the grouped base index provides.
	outTyped map[typedKey][]EdgeID
	inTyped  map[typedKey][]EdgeID

	// Tail column extensions, keyed by base vertex-type ID, parallel to
	// colsByVType[tid]. tailSlot maps a tail vertex to its slot within
	// its type's tail columns (-1: the type declares no vertex
	// properties, so every read of it is a property-map read).
	cols     map[int32][]tailColumn
	tailSlot []int32
	colBytes int64
}

// ensureOverlay attaches (or returns) f's overlay. Called from the
// mutation path only, which never overlaps readers.
func (f *Frozen) ensureOverlay() *overlay {
	if f.ov != nil {
		return f.ov
	}
	ov := &overlay{
		baseNV:   len(f.vtypeOf),
		baseNE:   len(f.etypeOf),
		vtypes:   append([]string(nil), f.vtypes...),
		etypes:   append([]string(nil), f.etypes...),
		vtypeID:  make(map[string]int32, len(f.vtypeID)),
		etypeID:  make(map[string]int32, len(f.etypeID)),
		outTyped: make(map[typedKey][]EdgeID),
		inTyped:  make(map[typedKey][]EdgeID),
		cols:     make(map[int32][]tailColumn),
	}
	for t, id := range f.vtypeID {
		ov.vtypeID[t] = id
	}
	for t, id := range f.etypeID {
		ov.etypeID[t] = id
	}
	f.ov = ov
	return ov
}

// overlayAddVertex lands the freshly appended vertex id in f's tail:
// type interning, and a slot in each of its type's tail columns. The
// caller validated declared properties before appending, so the typed
// column appends below cannot fail — which is what lets Compact rebuild
// unconditionally.
func (f *Frozen) overlayAddVertex(id VertexID) {
	ov := f.ensureOverlay()
	vt := f.g.vertices[id].Type
	tid, ok := ov.vtypeID[vt]
	if !ok {
		tid = int32(len(ov.vtypes))
		ov.vtypeID[vt] = tid
		ov.vtypes = append(ov.vtypes, vt)
	}
	ov.vtypeOf = append(ov.vtypeOf, tid)
	slot := int32(-1)
	if int(tid) < len(f.vtypes) && f.colsByVType != nil && len(f.colsByVType[tid]) > 0 {
		slot = ov.appendColumnSlots(f, tid, id)
	}
	ov.tailSlot = append(ov.tailSlot, slot)
}

// appendColumnSlots extends every base column of type tid with one slot
// holding vertex id's value (nil when absent).
func (ov *overlay) appendColumnSlots(f *Frozen, tid int32, id VertexID) int32 {
	base := f.colsByVType[tid]
	tcs := ov.cols[tid]
	if tcs == nil {
		tcs = make([]tailColumn, len(base))
		ov.cols[tid] = tcs
	}
	slot := int32(len(tcs[0].vals))
	v := &f.g.vertices[id]
	for i := range base {
		c := &base[i]
		tc := &tcs[i]
		val := v.Prop(c.prop)
		tc.vals = append(tc.vals, val)
		ov.colBytes += 24
		switch c.kind {
		case PropInt:
			var x int64
			if val != nil {
				x = val.(int64)
			}
			tc.ints = append(tc.ints, x)
		case PropFloat:
			var x float64
			if val != nil {
				x = val.(float64)
			}
			tc.floats = append(tc.floats, x)
		case PropString:
			var x string
			if val != nil {
				x = val.(string)
			}
			tc.strs = append(tc.strs, x)
			ov.colBytes += int64(len(x))
		case PropBool:
			var x bool
			if val != nil {
				x = val.(bool)
			}
			tc.bools = append(tc.bools, x)
		}
	}
	return slot
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

// checkTailProps eagerly validates declared properties for a vertex
// about to land in the overlay, so a lying value is rejected before it
// mutates anything — the same check the columnar freeze would apply,
// moved to mutation time. This is what guarantees Compact's rebuild
// cannot fail on tail data.
func (g *Graph) checkTailProps(vtype string, props Properties) error {
	if g.schema == nil || len(props) == 0 {
		return nil
	}
	// Map order does not matter for the outcome: every entry is checked
	// and, when several violate, the smallest key's error is reported.
	var badKey string
	var badErr error
	for k, v := range props {
		if err := g.schema.CheckValue(vtype, k, v); err != nil && (badErr == nil || k < badKey) {
			badKey, badErr = k, err
		}
	}
	return badErr
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
	if len(ov.vtypeOf)+len(ov.etypeOf) < g.compactionThreshold(ov) {
		return
	}
	_ = g.Compact()
}

// Compact folds the current snapshot's tail into a fresh base CSR and
// swaps it in atomically. A no-op when there is no snapshot or no tail.
// Tail data cannot fail the rebuild (mutation-time validation), but
// post-freeze SetProp on a declared property can; in that case the
// cached snapshot is dropped so the next FreezeChecked surfaces the
// error.
func (g *Graph) Compact() error {
	f := g.frozen.Load()
	if f == nil || f.ov == nil {
		return nil
	}
	start := time.Now()
	nf, err := buildFrozen(g)
	if err != nil {
		g.frozen.Store(nil)
		return err
	}
	g.frozen.Store(nf)
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
	return len(f.ov.vtypeOf), len(f.ov.etypeOf)
}
