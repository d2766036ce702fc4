// Package algo implements the graph algorithms the evaluation workload
// needs beyond pattern matching: k-hop neighborhood traversals (Q2/Q3),
// per-path aggregation (Q4), label-propagation community detection
// (Q7 — the paper used Neo4j's APOC UDF), and largest-community
// extraction (Q8).
//
// Every kernel runs on the graph's frozen CSR view (graph.Frozen): flat
// offset/edge arrays instead of per-vertex slices, and
// index-addressed bitsets instead of map[VertexID]bool visited sets —
// the storage layout that removed the allocation bottleneck from the
// k-hop hot path. Results are byte-identical to the historical
// append-mode implementations (same vertices, same order).
//
// The Traversal type bundles a frozen graph with reusable scratch state
// (visited bitset, frontier arrays, result buffer), so a loop over many
// sources — the shape of every Fig. 7 per-source query — performs no
// per-source allocation. The package-level functions are convenience
// wrappers that build a one-shot Traversal.
//
// Context variants (KHopNeighborhoodContext etc.) poll ctx inside the
// traversal, not just between sources, so even a single huge traversal
// stops promptly on cancellation. Parallel per-source and per-round
// variants live in parallel.go.
package algo

import (
	"context"
	"fmt"
	"sort"

	"kaskade/internal/bitset"
	"kaskade/internal/graph"
)

// Direction selects traversal orientation.
type Direction int

// Traversal directions.
const (
	Forward  Direction = iota // follow out-edges (descendants)
	Backward                  // follow in-edges (ancestors)
)

// ctxPollEvery is how many traversal steps (edge probes) pass between
// context polls: frequent enough that cancellation is prompt, rare
// enough that the poll never shows up in profiles.
const ctxPollEvery = 1024

// Traversal bundles a frozen graph with reusable scratch state: the
// visited bitset, BFS frontier arrays, per-vertex relaxation arrays,
// and a result buffer. Reusing one Traversal across a per-source loop
// makes each traversal allocation-free (scratch is cleared by walking
// the previous result, O(|result|), not O(V)).
//
// A Traversal is single-goroutine; give each worker its own (see
// ForEachSource). Slices returned by its methods are backed by the
// scratch buffer and valid only until the next call on the same
// Traversal — copy them to keep them.
type Traversal struct {
	f        *graph.Frozen
	visited  bitset.Set
	frontier []graph.VertexID
	next     []graph.VertexID
	buf      []graph.VertexID // result buffer for KHop/Reachable

	// PathLengths scratch: dense best-aggregate array and its touched set.
	best  []int64
	seen  bitset.Set
	queue []plItem

	steps int // context poll tick counter
}

type plItem struct {
	v    graph.VertexID
	agg  int64
	hops int
}

// NewTraversal returns a Traversal over g's frozen view (freezing it on
// first use if needed).
func NewTraversal(g *graph.Graph) *Traversal { return NewFrozenTraversal(g.Freeze()) }

// NewFrozenTraversal returns a Traversal over an already-frozen graph.
func NewFrozenTraversal(f *graph.Frozen) *Traversal {
	return &Traversal{
		f:       f,
		visited: bitset.New(f.NumVertices()),
	}
}

// Frozen returns the frozen graph the traversal runs on.
func (t *Traversal) Frozen() *graph.Frozen { return t.f }

func (t *Traversal) edges(v graph.VertexID, dir Direction) []graph.EdgeID {
	if dir == Forward {
		return t.f.Out(v)
	}
	return t.f.In(v)
}

func (t *Traversal) neighbor(eid graph.EdgeID, dir Direction) graph.VertexID {
	if dir == Forward {
		return t.f.To(eid)
	}
	return t.f.From(eid)
}

// tick polls ctx once every ctxPollEvery steps.
func (t *Traversal) tick(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	t.steps++
	if t.steps%ctxPollEvery != 0 {
		return nil
	}
	return ctx.Err()
}

// KHop returns the set of vertices reachable from src within 1..k hops
// in the given direction (BFS; src itself is excluded), in the same
// order as KHopNeighborhood. The result is scratch-backed: valid until
// the next call on this Traversal.
func (t *Traversal) KHop(src graph.VertexID, k int, dir Direction) []graph.VertexID {
	out, _ := t.KHopContext(nil, src, k, dir)
	return out
}

// KHopContext is KHop with cancellation: ctx is polled inside the
// traversal (every ctxPollEvery edge probes), so even one huge
// neighborhood expansion stops promptly. A nil ctx never cancels.
func (t *Traversal) KHopContext(ctx context.Context, src graph.VertexID, k int, dir Direction) ([]graph.VertexID, error) {
	if k < 1 {
		return nil, nil
	}
	out := t.buf[:0]
	t.visited.Add(int(src))
	defer func() {
		// Clear only what this traversal touched, and keep the grown
		// buffers for the next call (also on the error path).
		t.visited.Remove(int(src))
		for _, v := range out {
			t.visited.Remove(int(v))
		}
		t.buf = out[:0]
		t.frontier = t.frontier[:0]
		t.next = t.next[:0]
	}()
	frontier := append(t.frontier[:0], src)
	next := t.next[:0]
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, eid := range t.edges(v, dir) {
				if err := t.tick(ctx); err != nil {
					t.frontier, t.next = frontier, next
					return out, err
				}
				n := t.neighbor(eid, dir)
				if !t.visited.Has(int(n)) {
					t.visited.Add(int(n))
					next = append(next, n)
					out = append(out, n)
				}
			}
		}
		frontier, next = next, frontier
	}
	t.frontier, t.next = frontier, next
	return out, nil
}

// KHopNeighborhood returns the set of vertices reachable from src within
// 1..k hops in the given direction (BFS; src itself is excluded). This is
// the primitive behind Q2 (ancestors, Backward) and Q3 (descendants,
// Forward). For a loop over many sources, reuse a Traversal instead.
func KHopNeighborhood(g *graph.Graph, src graph.VertexID, k int, dir Direction) []graph.VertexID {
	out := NewTraversal(g).KHop(src, k, dir)
	if len(out) == 0 {
		return nil
	}
	return out
}

// KHopNeighborhoodContext is KHopNeighborhood with cancellation: ctx is
// polled inside the traversal, not just between calls.
func KHopNeighborhoodContext(ctx context.Context, g *graph.Graph, src graph.VertexID, k int, dir Direction) ([]graph.VertexID, error) {
	return NewTraversal(g).KHopContext(ctx, src, k, dir)
}

// PathLengths computes, for every vertex in src's forward k-hop
// neighborhood, the aggregate (max) of the edge property `prop` over all
// edges of the BFS tree path reaching it — Q4's "weighted distance":
// retrieve the 4-hop neighborhood, then aggregate an edge data property
// (the timestamp) along paths. The BFS relaxes a vertex when a path with
// a smaller aggregate is found, making the result order-independent.
//
// Edges whose `prop` is missing or not an int64 are skipped entirely:
// they contribute no aggregate and paths may not traverse them. (They
// were previously coerced to 0, which silently made an untimestamped
// edge look like the oldest possible one.) A vertex reachable only
// through skipped edges is absent from the result.
func PathLengths(g *graph.Graph, src graph.VertexID, k int, prop string) map[graph.VertexID]int64 {
	dist, _ := NewTraversal(g).PathLengthsContext(nil, src, k, prop)
	return dist
}

// PathLengthsContext is PathLengths with cancellation.
func PathLengthsContext(ctx context.Context, g *graph.Graph, src graph.VertexID, k int, prop string) (map[graph.VertexID]int64, error) {
	return NewTraversal(g).PathLengthsContext(ctx, src, k, prop)
}

// PathLengthsContext computes the per-vertex path aggregate (see
// PathLengths) using the traversal's dense relaxation arrays. The
// returned map is freshly allocated (not scratch-backed).
func (t *Traversal) PathLengthsContext(ctx context.Context, src graph.VertexID, k int, prop string) (map[graph.VertexID]int64, error) {
	if t.best == nil {
		t.best = make([]int64, t.f.NumVertices())
	}
	if t.seen == nil {
		t.seen = bitset.New(t.f.NumVertices())
	}
	touched := t.buf[:0] // vertices with a best[] entry, src excluded
	defer func() {
		t.seen.Remove(int(src))
		for _, v := range touched {
			t.seen.Remove(int(v))
		}
		t.buf = touched[:0]
		t.queue = t.queue[:0]
	}()
	ts := t.f.Graph().EdgeProperty(prop) // resolved once, indexed per edge
	queue := append(t.queue[:0], plItem{v: src, agg: 0, hops: 0})
	t.seen.Add(int(src))
	t.best[src] = 0
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if cur.hops == k {
			continue
		}
		for _, eid := range t.f.Out(cur.v) {
			if err := t.tick(ctx); err != nil {
				t.queue = queue[:0]
				return nil, err
			}
			x, ok := ts.Int(eid)
			if !ok {
				continue // missing/non-int64 property: edge not traversable
			}
			agg := cur.agg
			if x > agg {
				agg = x
			}
			to := t.f.To(eid)
			if t.seen.Has(int(to)) && agg >= t.best[to] {
				continue
			}
			if !t.seen.Has(int(to)) {
				t.seen.Add(int(to))
				if to != src {
					touched = append(touched, to)
				}
			}
			t.best[to] = agg
			queue = append(queue, plItem{v: to, agg: agg, hops: cur.hops + 1})
		}
	}
	t.queue = queue
	dist := make(map[graph.VertexID]int64, len(touched))
	for _, v := range touched {
		dist[v] = t.best[v]
	}
	return dist, nil
}

// LabelPropagation runs synchronous label-propagation community
// detection for the given number of passes (Q7; the paper runs 25 passes
// of the APOC implementation). Every vertex starts in its own community;
// each pass it adopts the most frequent community among its undirected
// neighbors (ties broken by the smaller label for determinism). The
// final labels are written to the vertex property `communityProp` and
// also returned.
func LabelPropagation(g *graph.Graph, passes int, communityProp string) []int64 {
	labels, _ := LabelPropagationContext(context.Background(), g, passes, communityProp)
	return labels
}

// LabelPropagationContext is LabelPropagation with cancellation, polled
// once per pass per chunk of vertices.
func LabelPropagationContext(ctx context.Context, g *graph.Graph, passes int, communityProp string) ([]int64, error) {
	return LabelPropagationParallel(ctx, g, passes, communityProp, 1)
}

// lpScratch is a worker's flat scratch for lpAdoptLabel. Labels are
// always vertex indices (every vertex starts labeled with its own
// index and only ever adopts a neighbor's label), so the per-label
// neighbor counts live in a flat []int32 indexed by label instead of a
// map[int64]int — no hashing, no per-pass map churn. Entries are
// invalidated in O(1) by epoch tag: counts[l] is live only while
// mark[l] == epoch, and reset just bumps the epoch. touched records
// the labels seen for the current vertex so the argmax sweep visits
// exactly the nonzero counts (the rule — max count, min label on ties
// — is order-independent, so sweeping in first-seen order is as
// deterministic as sweeping a sorted set).
type lpScratch struct {
	counts  []int32
	mark    []uint32
	epoch   uint32
	touched []int64
}

func newLPScratch(n int) *lpScratch {
	return &lpScratch{
		counts:  make([]int32, n),
		mark:    make([]uint32, n),
		touched: make([]int64, 0, 64),
	}
}

// reset invalidates all counts for the next vertex.
func (s *lpScratch) reset() {
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrapped: stale marks from 2^32 vertices ago would read as
		// current. Clear them and restart above zero.
		clear(s.mark)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// bump counts one neighbor carrying the given label.
func (s *lpScratch) bump(label int64) {
	if s.mark[label] != s.epoch {
		s.mark[label] = s.epoch
		s.counts[label] = 0
		s.touched = append(s.touched, label)
	}
	s.counts[label]++
}

// lpAdoptLabel computes one vertex's next label: the most frequent
// label among its undirected neighbors, smaller label winning ties.
// The rule is deterministic — min label among the max-count labels —
// so computing vertices in any order (or in parallel) yields identical
// labels. sc is per-worker scratch; the whole computation is
// allocation-free on the warm path (pinned by
// TestLabelPropagationAllocations).
func lpAdoptLabel(f *graph.Frozen, labels []int64, v int, sc *lpScratch) int64 {
	sc.reset()
	id := graph.VertexID(v)
	for _, eid := range f.Out(id) {
		sc.bump(labels[f.To(eid)])
	}
	for _, eid := range f.In(id) {
		sc.bump(labels[f.From(eid)])
	}
	if len(sc.touched) == 0 {
		return labels[v]
	}
	bestLabel, bestCount := labels[v], int32(0)
	for _, label := range sc.touched {
		if c := sc.counts[label]; c > bestCount || (c == bestCount && label < bestLabel) {
			bestLabel, bestCount = label, c
		}
	}
	return bestLabel
}

// LargestCommunity returns the community label with the most vertices of
// countType ("" counts all vertices) and the member vertices of that
// community — Q8: the largest community as measured by the number of
// "job" vertices. It reads the labels written by LabelPropagation.
func LargestCommunity(g *graph.Graph, communityProp, countType string) (label int64, members []graph.VertexID, err error) {
	counts := make(map[int64]int)
	found := false
	g.EachVertex(func(v *graph.Vertex) {
		l, ok := v.Prop(communityProp).(int64)
		if !ok {
			return
		}
		found = true
		if countType == "" || v.Type == countType {
			counts[l]++
		}
	})
	if !found {
		return 0, nil, fmt.Errorf("algo: no %q labels present; run LabelPropagation first", communityProp)
	}
	best := int64(-1)
	bestCount := -1
	var labelsSorted []int64
	for l := range counts {
		labelsSorted = append(labelsSorted, l)
	}
	sort.Slice(labelsSorted, func(i, j int) bool { return labelsSorted[i] < labelsSorted[j] })
	for _, l := range labelsSorted {
		if counts[l] > bestCount {
			best, bestCount = l, counts[l]
		}
	}
	g.EachVertex(func(v *graph.Vertex) {
		if l, ok := v.Prop(communityProp).(int64); ok && l == best {
			members = append(members, v.ID)
		}
	})
	return best, members, nil
}

// Reachable computes the full forward reachability set from src
// (unbounded hops), excluding src — the "blast radius" vertex set used
// by Q1-style impact analyses.
func Reachable(g *graph.Graph, src graph.VertexID) []graph.VertexID {
	out, _ := NewTraversal(g).ReachableContext(nil, src)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ReachableContext is Reachable with cancellation.
func ReachableContext(ctx context.Context, g *graph.Graph, src graph.VertexID) ([]graph.VertexID, error) {
	return NewTraversal(g).ReachableContext(ctx, src)
}

// ReachableContext computes the forward reachability set (see
// Reachable) on the traversal's scratch. The result is scratch-backed:
// valid until the next call on this Traversal.
func (t *Traversal) ReachableContext(ctx context.Context, src graph.VertexID) ([]graph.VertexID, error) {
	out := t.buf[:0]
	t.visited.Add(int(src))
	defer func() {
		t.visited.Remove(int(src))
		for _, v := range out {
			t.visited.Remove(int(v))
		}
		t.buf = out[:0]
		t.frontier = t.frontier[:0]
	}()
	stack := append(t.frontier[:0], src)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range t.f.Out(v) {
			if err := t.tick(ctx); err != nil {
				t.frontier = stack
				return out, err
			}
			n := t.f.To(eid)
			if !t.visited.Has(int(n)) {
				t.visited.Add(int(n))
				out = append(out, n)
				stack = append(stack, n)
			}
		}
	}
	t.frontier = stack
	return out, nil
}
