package exec

import (
	"context"
	"fmt"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/metrics"
)

// matcher performs backtracking pattern matching of a MATCH clause over a
// graph, with Cypher edge-uniqueness semantics: no edge is used twice
// within one match of the whole clause (this is what makes variable-length
// traversal over cyclic graphs terminate).
//
// Traversal steps run on the query's frozen snapshot (base CSR plus
// any delta tail): a typed edge pattern expands through
// OutOfType/InOfType, one contiguous pre-filtered slice per step, and
// endpoint/type lookups read the graph's flat edge arrays.
// The snapshot preserves insertion order within each type group, so
// enumeration order is the graph's insertion order.
//
// Bindings live in flat plan-time scratch, not a map: varNames holds
// the pattern's variables (fixed at construction) and slots the bound
// value per variable, nil meaning unbound — pattern variables only ever
// bind non-nil refs. Binding and backtracking are a slot store and a
// nil store; the matcher itself implements the evaluator's scope over
// the slots, so WHERE/RETURN evaluation does no map work at all. Values
// handed out of a live binding (projected rows, aggregation inputs) are
// exported at the escape boundary — see exportValue.
type matcher struct {
	g        *graph.Graph
	f        *graph.Frozen // the query's snapshot of g
	varNames []string      // pattern variables, deduped, construction order
	slots    []Value       // bound value per variable; nil = unbound
	usedEdge []bool        // edge-uniqueness set, indexed by EdgeID
	where    gql.Expr      // optional row filter
	yield    func() error  // called once per full match
	ctx      context.Context
	steps    int // tick counter amortizing ctx polls

	// colReads/mapReads count declared-property column reads vs
	// undeclared-property map reads, flushed coarsely via flushPropReads.
	colReads int64
	mapReads int64
}

// newMatcher builds a matcher for q over ex's graph, traversing f, the
// snapshot the query resolved once at its start. The edge-uniqueness
// set costs O(NumEdges) to allocate and zero, so it is only built when
// the patterns actually contain edge steps — a vertex-only point query
// pays nothing for it regardless of graph size.
func (ex *Executor) newMatcher(ctx context.Context, q *gql.MatchQuery, f *graph.Frozen) *matcher {
	m := &matcher{
		g:     ex.G,
		f:     f,
		where: q.Where,
		ctx:   ctx,
	}
	for _, pat := range q.Patterns {
		for _, n := range pat.Nodes {
			m.addVar(n.Var)
		}
		for _, e := range pat.Edges {
			m.addVar(e.Var)
		}
	}
	m.slots = make([]Value, len(m.varNames))
	for _, pat := range q.Patterns {
		if len(pat.Edges) > 0 {
			m.usedEdge = make([]bool, ex.G.NumEdges())
			break
		}
	}
	return m
}

// addVar registers a pattern variable (deduped; "" ignored).
func (m *matcher) addVar(name string) {
	if name == "" {
		return
	}
	for _, n := range m.varNames {
		if n == name {
			return
		}
	}
	m.varNames = append(m.varNames, name)
}

// slot resolves a variable to its scratch index (-1 when the name is
// not a pattern variable). Patterns carry a handful of variables, so a
// linear scan — with Go's pointer-equality fast path for interned
// strings — beats map hashing.
func (m *matcher) slot(name string) int {
	for i, n := range m.varNames {
		if n == name {
			return i
		}
	}
	return -1
}

// lookup implements scope over the slots: bound means non-nil.
func (m *matcher) lookup(name string) (Value, bool) {
	for i, n := range m.varNames {
		if n == name {
			v := m.slots[i]
			return v, v != nil
		}
	}
	return nil, false
}

// prop implements scope, counting column vs map reads (see readProp).
func (m *matcher) prop(base Value, key string) (Value, error) {
	return readProp(base, key, &m.colReads, &m.mapReads)
}

// flushPropReads moves the matcher's property-read tallies into the
// registry (nil-safe). Called once per match (or worker), not per read,
// so the hot path stays on plain local ints.
func (m *matcher) flushPropReads(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	if m.colReads > 0 {
		reg.ColumnScans.Add(m.colReads)
	}
	if m.mapReads > 0 {
		reg.PropMapFallbacks.Add(m.mapReads)
	}
	m.colReads, m.mapReads = 0, 0
}

// stepEdges returns the adjacency slice to scan for one edge-pattern
// step at vertex v: the contiguous (v, type) group for a typed step,
// the whole row for an untyped one.
func (m *matcher) stepEdges(v graph.VertexID, etype string, reversed bool) []graph.EdgeID {
	switch {
	case etype != "" && reversed:
		return m.f.InOfType(v, etype)
	case etype != "":
		return m.f.OutOfType(v, etype)
	case reversed:
		return m.f.In(v)
	}
	return m.f.Out(v)
}

// edgeEndpoint returns the step's target endpoint of eid (the source
// when reversed), from the frozen flat arrays.
func (m *matcher) edgeEndpoint(eid graph.EdgeID, reversed bool) graph.VertexID {
	if reversed {
		return m.f.From(eid)
	}
	return m.f.To(eid)
}

// vertexTypeOf returns v's type label.
func (m *matcher) vertexTypeOf(v graph.VertexID) string { return m.f.VertexTypeOf(v) }

// tickEvery is how many traversal steps pass between context polls: a
// power of two so the check compiles to a mask, small enough that even a
// match that never yields (everything filtered by WHERE, or a huge
// search space per candidate) notices cancellation promptly.
const tickEvery = 256

// tick is called on every traversal step (candidate binding, edge
// probe). It polls the matcher's context once every tickEvery steps and
// returns the context's error once cancelled, which aborts the
// backtracking search the same way any evaluation error would.
func (m *matcher) tick() error {
	if m.ctx == nil {
		return nil
	}
	m.steps++
	if m.steps&(tickEvery-1) != 0 {
		return nil
	}
	return m.ctx.Err()
}

// matchCands enumerates every match whose first node (of the first
// pattern) binds one of the candidates, in candidate order, calling
// yield with the matcher's slots populated. The candidates are
// ids[lo:hi], or the vertex IDs lo..hi-1 themselves when ids is nil
// (see firstNodeCandidates). Both match schedules run this loop: the
// inline one over every candidate, the chunked one per chunk.
func (m *matcher) matchCands(patterns []gql.PathPattern, ids []graph.VertexID, lo, hi int) error {
	fs := -1
	if v := patterns[0].Nodes[0].Var; v != "" {
		fs = m.slot(v)
	}
	for i := lo; i < hi; i++ {
		if err := m.tick(); err != nil {
			return err
		}
		id := graph.VertexID(i)
		if ids != nil {
			id = ids[i]
		}
		if fs >= 0 {
			m.slots[fs] = VertexRef{G: m.g, ID: id}
		}
		err := m.walkChain(patterns, 0, 1, id)
		if fs >= 0 {
			m.slots[fs] = nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// startPattern begins matching pattern pi by binding its first node, then
// walking the chain; when all patterns are matched, the WHERE filter runs
// and yield fires.
func (m *matcher) startPattern(patterns []gql.PathPattern, pi int) error {
	if pi == len(patterns) {
		if m.where != nil {
			ok, err := evalBool(m.where, m)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return m.yield()
	}
	pat := patterns[pi]
	if len(pat.Nodes) == 0 {
		return fmt.Errorf("exec: empty pattern")
	}
	return m.bindNode(pat.Nodes[0], func(at graph.VertexID) error {
		return m.walkChain(patterns, pi, 1, at)
	})
}

// walkChain continues pattern pi at node index ni with the chain's
// current endpoint at `at`.
func (m *matcher) walkChain(patterns []gql.PathPattern, pi, ni int, at graph.VertexID) error {
	pat := patterns[pi]
	if ni == len(pat.Nodes) {
		return m.startPattern(patterns, pi+1)
	}
	edge := pat.Edges[ni-1]
	toPat := pat.Nodes[ni]
	cont := func(next graph.VertexID) error {
		return m.walkChain(patterns, pi, ni+1, next)
	}
	if edge.VarLength {
		return m.matchVarLength(at, edge, toPat, cont)
	}
	return m.matchSingleEdge(at, edge, toPat, cont)
}

// bindNode binds the first node of a chain: either the variable is
// already bound (join with an earlier pattern) or we enumerate candidate
// vertices (restricted by type when given).
func (m *matcher) bindNode(n gql.NodePattern, cont func(graph.VertexID) error) error {
	si := -1
	if n.Var != "" {
		si = m.slot(n.Var)
		if v := m.slots[si]; v != nil {
			ref, ok := v.(VertexRef)
			if !ok {
				return fmt.Errorf("exec: variable %s is not a vertex", n.Var)
			}
			if n.Type != "" && m.vertexTypeOf(ref.ID) != n.Type {
				return nil
			}
			return cont(ref.ID)
		}
	}
	try := func(id graph.VertexID) error {
		if err := m.tick(); err != nil {
			return err
		}
		if si < 0 {
			return cont(id)
		}
		m.slots[si] = VertexRef{G: m.g, ID: id}
		err := cont(id)
		m.slots[si] = nil
		return err
	}
	if n.Type != "" {
		for _, id := range m.g.VerticesOfType(n.Type) {
			if err := try(id); err != nil {
				return err
			}
		}
		return nil
	}
	for id := 0; id < m.g.NumVertices(); id++ {
		if err := try(graph.VertexID(id)); err != nil {
			return err
		}
	}
	return nil
}

// checkAndBindTarget binds (or joins) the target node of an edge step and
// invokes cont with the target vertex.
func (m *matcher) checkAndBindTarget(toPat gql.NodePattern, target graph.VertexID, cont func(graph.VertexID) error) error {
	if toPat.Type != "" && m.vertexTypeOf(target) != toPat.Type {
		return nil
	}
	if toPat.Var == "" {
		return cont(target)
	}
	si := m.slot(toPat.Var)
	if v := m.slots[si]; v != nil {
		ref, ok := v.(VertexRef)
		if !ok {
			return fmt.Errorf("exec: variable %s is not a vertex", toPat.Var)
		}
		if ref.ID != target {
			return nil
		}
		return cont(target)
	}
	m.slots[si] = VertexRef{G: m.g, ID: target}
	err := cont(target)
	m.slots[si] = nil
	return err
}

func (m *matcher) matchSingleEdge(from graph.VertexID, e gql.EdgePattern, toPat gql.NodePattern, cont func(graph.VertexID) error) error {
	edges := m.stepEdges(from, e.Type, e.Reversed)
	ei := -1
	if e.Var != "" {
		ei = m.slot(e.Var)
	}
	for _, eid := range edges {
		if err := m.tick(); err != nil {
			return err
		}
		if m.usedEdge[eid] {
			continue
		}
		target := m.edgeEndpoint(eid, e.Reversed)
		var undoVar bool
		if ei >= 0 {
			if prev := m.slots[ei]; prev != nil {
				if ref, ok := prev.(EdgeRef); !ok || ref.ID != eid {
					continue
				}
			} else {
				m.slots[ei] = EdgeRef{G: m.g, ID: eid}
				undoVar = true
			}
		}
		m.usedEdge[eid] = true
		err := m.checkAndBindTarget(toPat, target, cont)
		m.usedEdge[eid] = false
		if undoVar {
			m.slots[ei] = nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// matchVarLength walks paths of length MinHops..MaxHops from `from`,
// following edges of the pattern's type (any type when empty), honoring
// global edge-uniqueness. Each distinct edge sequence is a distinct match
// (path semantics, which is what connector views contract).
func (m *matcher) matchVarLength(from graph.VertexID, e gql.EdgePattern, toPat gql.NodePattern, cont func(graph.VertexID) error) error {
	var path []graph.EdgeID
	min, max := e.MinHops, e.MaxHops
	ei := -1
	if e.Var != "" {
		ei = m.slot(e.Var)
	}

	emit := func(at graph.VertexID) error {
		if ei < 0 {
			return m.checkAndBindTarget(toPat, at, cont)
		}
		if m.slots[ei] != nil {
			return fmt.Errorf("exec: variable-length variable %s bound twice", e.Var)
		}
		// The binding aliases the walk's scratch path — no per-yield
		// copy. The walk never mutates path while the binding is live
		// (it appends only after emit returns and the slot is cleared);
		// anything that outlives the yield is exported at its escape
		// boundary instead (exportValue).
		m.slots[ei] = PathRef{G: m.g, Edges: path}
		err := m.checkAndBindTarget(toPat, at, cont)
		m.slots[ei] = nil
		return err
	}

	var walk func(at graph.VertexID, hops int) error
	walk = func(at graph.VertexID, hops int) error {
		if hops >= min {
			if err := emit(at); err != nil {
				return err
			}
		}
		if max >= 0 && hops == max {
			return nil
		}
		for _, eid := range m.stepEdges(at, e.Type, e.Reversed) {
			if err := m.tick(); err != nil {
				return err
			}
			if m.usedEdge[eid] {
				continue
			}
			next := m.edgeEndpoint(eid, e.Reversed)
			m.usedEdge[eid] = true
			path = append(path, eid)
			err := walk(next, hops+1)
			path = path[:len(path)-1]
			m.usedEdge[eid] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	return walk(from, 0)
}
