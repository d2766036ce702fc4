// Parallel traversal variants: per-source fan-out (the shape of the
// Fig. 7 workload queries Q1-Q4) and per-round label propagation. Both
// run on internal/par's worker pool and merge deterministically — a
// per-source result lands in its source's index slot, and a label pass
// computes every vertex's next label from the same immutable previous
// labels — so results are identical to the sequential kernels at any
// worker count.
package algo

import (
	"context"
	"runtime"

	"kaskade/internal/graph"
	"kaskade/internal/par"
)

// ForEachSource runs fn(t, i, srcs[i]) for every source index on up to
// `workers` goroutines (0 or 1 = sequential, negative = one per
// available CPU), giving each worker a private Traversal over g. fn
// must write its result into a per-index slot (slice element i) — the
// deterministic merge — and must not touch shared mutable state. The
// first error in source order is returned; on cancellation, ctx's error
// is returned even when no fn observed it (unclaimed sources never
// run).
func ForEachSource(ctx context.Context, g *graph.Graph, srcs []graph.VertexID, workers int, fn func(t *Traversal, i int, src graph.VertexID) error) error {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := g.Freeze()
	if workers <= 1 || len(srcs) < 2 {
		t := NewFrozenTraversal(f)
		for i, s := range srcs {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(t, i, s); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(srcs))
	par.DoContext(ctx, len(srcs), workers, func(next func() (int, bool)) {
		t := NewFrozenTraversal(f)
		for {
			i, ok := next()
			if !ok {
				return
			}
			errs[i] = fn(t, i, srcs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// KHopNeighborhoods computes KHopNeighborhood for every source on up to
// `workers` goroutines; result i is source i's neighborhood (copied out
// of worker scratch, so all results are valid together). Results are
// identical to calling KHopNeighborhood per source, in any worker
// configuration.
func KHopNeighborhoods(ctx context.Context, g *graph.Graph, srcs []graph.VertexID, k int, dir Direction, workers int) ([][]graph.VertexID, error) {
	out := make([][]graph.VertexID, len(srcs))
	err := ForEachSource(ctx, g, srcs, workers, func(t *Traversal, i int, s graph.VertexID) error {
		nb, err := t.KHopContext(ctx, s, k, dir)
		if err != nil {
			return err
		}
		if len(nb) > 0 {
			out[i] = append([]graph.VertexID(nil), nb...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PathLengthsMulti computes PathLengths for every source on up to
// `workers` goroutines; result i is source i's per-vertex aggregate
// map. Results are identical to calling PathLengths per source.
func PathLengthsMulti(ctx context.Context, g *graph.Graph, srcs []graph.VertexID, k int, prop string, workers int) ([]map[graph.VertexID]int64, error) {
	out := make([]map[graph.VertexID]int64, len(srcs))
	err := ForEachSource(ctx, g, srcs, workers, func(t *Traversal, i int, s graph.VertexID) error {
		dist, err := t.PathLengthsContext(ctx, s, k, prop)
		if err != nil {
			return err
		}
		out[i] = dist
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lpChunkSize is the vertex-range granularity of a parallel label
// propagation pass (over-decomposed so fast workers steal skewed tail
// work, like the matcher's candidate chunks).
const lpChunkSize = 2048

// LabelPropagationParallel is LabelPropagation with each pass's
// per-vertex label adoption fanned out over up to `workers` goroutines
// (0 or 1 = sequential, negative = one per available CPU). A pass
// computes every vertex's next label from the same immutable previous
// labels — synchronous propagation — so the labels are identical to the
// sequential kernel at any worker count. ctx is polled once per chunk;
// on cancellation the passes stop and ctx's error is returned. Writing
// the labels fails when the schema declares communityProp with a kind
// other than int.
func LabelPropagationParallel(ctx context.Context, g *graph.Graph, passes int, communityProp string, workers int) ([]int64, error) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := g.Freeze()
	n := f.NumVertices()
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	next := make([]int64, n)
	numChunks := (n + lpChunkSize - 1) / lpChunkSize
	changedBy := make([]bool, numChunks)

	// Per-worker adoption scratch, recycled through a free-list channel
	// so the flat count/mark arrays are allocated at most once per
	// worker slot for the whole run, not once per pass (the old
	// map[int64]int was rebuilt by every worker every pass). At most
	// max(workers, 1) scratches are checked out at once, so the
	// buffered return below never blocks.
	free := make(chan *lpScratch, max(workers, 1))

	// par.DoContext runs the claim loop inline when workers <= 1 and
	// polls ctx in next() either way, so one code path serves both.
	runPass := func() error {
		par.DoContext(ctx, numChunks, max(workers, 1), func(nx func() (int, bool)) {
			var sc *lpScratch
			select {
			case sc = <-free:
			default:
				sc = newLPScratch(n)
			}
			defer func() { free <- sc }()
			for {
				ci, ok := nx()
				if !ok {
					return
				}
				lo := ci * lpChunkSize
				hi := min(lo+lpChunkSize, n)
				changed := false
				for v := lo; v < hi; v++ {
					next[v] = lpAdoptLabel(f, labels, v, sc)
					if next[v] != labels[v] {
						changed = true
					}
				}
				changedBy[ci] = changed
			}
		})
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}

	for p := 0; p < passes; p++ {
		for i := range changedBy {
			changedBy[i] = false
		}
		if err := runPass(); err != nil {
			return nil, err
		}
		labels, next = next, labels
		changed := false
		for _, c := range changedBy {
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	if communityProp != "" {
		for v := 0; v < n; v++ {
			if err := g.SetVertexProp(graph.VertexID(v), communityProp, labels[v]); err != nil {
				return nil, err
			}
		}
	}
	return labels, nil
}
