// Package rewrite implements view-based query rewriting (§V-C). Apply is
// the one place that decides whether a view answers a query, and
// Candidates, its inverse, proposes the views Apply accepts (§IV view
// enumeration). Both rules are proved from the query's own shape and
// one schema typing (live): the vertex types and schema edges that lie
// on some schema walk agreeing with a pattern's labels.
//
//   - a type filter (views.TypeFilter) keeps the query text unchanged —
//     the rewrite is the redirection of the query to the filtered graph —
//     when it keeps every live vertex and edge type of every step of the
//     pattern, at every length the step can match;
//   - a k-hop connector replaces the whole pattern, which must be one
//     simple chain whose interior vertices and edges RETURN and WHERE do
//     not read, with a traversal of connector edges between the chain's
//     two ends, recomputing the variable-length bounds (the Listing 1 →
//     Listing 4 transformation). At every length the chain can match,
//     its typing must equal that of the connector edges covering the
//     length, or be empty where no whole number of them does;
//   - every other class has no rule: its views are materialized and
//     listed, but no query is rewritten over them.
//
// Without a schema no rule can be proved, so Apply refuses every view;
// so does a step with no upper bound, which the executor walks to the
// end of the graph and no finite typing covers, and a pattern that
// matches nothing on the schema, whose typing is empty: an empty typing
// proves a view equal to the pattern only vacuously.
package rewrite

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"kaskade/internal/constraints"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

// ErrNoRule is wrapped by Apply's error for a view class that has no
// rewrite rule.
var ErrNoRule = errors.New("no rewrite rule for the view class")

// Apply rewrites q over v — the returned query is meant to run against
// v's materialization — or returns an error when no rule proves that v
// answers q on a graph of the given schema.
func Apply(q gql.Query, v views.View, schema *graph.Schema) (gql.Query, error) {
	if schema == nil {
		return nil, fmt.Errorf("rewrite: %s: no schema to prove a rule against", v.Name())
	}
	m := gql.InnermostMatch(q)
	if m == nil {
		return nil, fmt.Errorf("rewrite: query has no MATCH block")
	}
	for _, p := range m.Patterns {
		for _, e := range p.Edges {
			if e.MaxHops < 0 {
				return nil, fmt.Errorf("rewrite: %s: a step with no upper bound can match walks of any length", v.Name())
			}
		}
	}
	switch v := v.(type) {
	case views.KHopConnector:
		return overKHopConnector(q, m, v, schema)
	case views.TypeFilter:
		if err := keepsLiveTypes(m, v, schema); err != nil {
			return nil, err
		}
		return q, nil
	}
	return nil, fmt.Errorf("rewrite: %s: %w", v.Name(), ErrNoRule)
}

// Candidates proposes the views Apply accepts for q on a graph of the
// given schema, read off the rules' own typing, in this order: the k-hop
// connectors between the ends of q's chain, k = 2..maxK; the vertex
// filter keeping the live vertex types; the one dropping every other
// vertex type; and the edge filter keeping the live edge types. These
// are the smallest filters of their class, since a filter answers q
// exactly when it keeps every live type. An empty keep or drop set is
// never proposed, nor is any view for a pattern with a step no schema
// walk agrees with: that pattern matches nothing. Beside each view it
// returns q rewritten over it, Apply's own result.
func Candidates(q gql.Query, schema *graph.Schema, maxK int) ([]views.View, []gql.Query) {
	m := gql.InnermostMatch(q)
	if schema == nil || m == nil {
		return nil, nil
	}
	vertexTypes, edgeTypes := schema.VertexTypes(), schema.EdgeTypes()
	liveV, liveE := make([]bool, len(vertexTypes)), make([]bool, len(edgeTypes))
	for _, c := range steps(m) {
		lo, hi := c.span()
		for l := lo; l <= hi; l++ {
			t := live(schema, c.layout(l))
			for _, at := range t.at {
				for v, ok := range at {
					liveV[v] = liveV[v] || ok
				}
			}
			for _, hop := range t.hops {
				for e, ok := range hop {
					liveE[e] = liveE[e] || ok
				}
			}
		}
	}
	var out []views.View
	if c, err := chainOf(m); err == nil {
		src, dst := c.labels[0], c.labels[len(c.steps)]
		if _, hi := c.span(); len(src) == 1 && len(dst) == 1 {
			for k := 2; k <= min(maxK, hi); k++ { // a longer connector edge fits no walk of the chain
				out = append(out, views.KHopConnector{SrcType: src[0], DstType: dst[0], K: k})
			}
		}
	}
	var keepV, dropV, keepE []string
	for v, t := range vertexTypes {
		if liveV[v] {
			keepV = append(keepV, t)
		} else {
			dropV = append(dropV, t)
		}
	}
	for e, t := range edgeTypes {
		if liveE[e] && !slices.Contains(keepE, t.Name) {
			keepE = append(keepE, t.Name)
		}
	}
	for _, types := range [][]string{keepV, dropV, keepE} {
		slices.Sort(types)
	}
	if len(keepV) > 0 {
		out = append(out, views.VertexInclusionSummarizer{Types: keepV})
	}
	if len(dropV) > 0 {
		out = append(out, views.VertexRemovalSummarizer{Types: dropV})
	}
	if len(keepE) > 0 {
		out = append(out, views.EdgeInclusionSummarizer{Types: keepE})
	}
	var vs []views.View
	var rws []gql.Query
	for _, v := range out {
		if rw, err := Apply(q, v, schema); err == nil {
			vs, rws = append(vs, v), append(rws, rw)
		}
	}
	return vs, rws
}

// keepsLiveTypes is the type filters' rule: q runs unchanged on f's
// graph when f keeps every vertex type and edge type a step of the MATCH
// can bind, at every length the step can match, and every step binds
// some schema walk. Untyped vertices and edges and the interior vertices
// of variable-length steps bind whatever the schema lets them.
func keepsLiveTypes(m *gql.MatchQuery, f views.TypeFilter, schema *graph.Schema) error {
	vertexTypes, edgeTypes := schema.VertexTypes(), schema.EdgeTypes()
	for _, c := range steps(m) {
		lo, hi := c.span()
		binds := false
		for l := lo; l <= hi; l++ {
			t := live(schema, c.layout(l))
			binds = binds || slices.Contains(t.at[0], true)
			for _, at := range t.at {
				for v, ok := range at {
					if ok && !f.KeepsVertexType(vertexTypes[v]) {
						return fmt.Errorf("rewrite: the pattern can bind vertex type %s, which %s drops", vertexTypes[v], f.Name())
					}
				}
			}
			for _, hop := range t.hops {
				for e, ok := range hop {
					if ok && !f.KeepsEdgeType(edgeTypes[e].Name) {
						return fmt.Errorf("rewrite: the pattern can bind edge type %s, which %s drops", edgeTypes[e].Name, f.Name())
					}
				}
			}
		}
		if !binds {
			return fmt.Errorf("rewrite: a step of the pattern binds no schema walk; the pattern matches nothing")
		}
	}
	return nil
}

// overKHopConnector rewrites m, one simple chain, into a traversal of
// kc's connector edges between the chain's two ends.
//
// Bound arithmetic: if the chain spans path lengths [L, U] in the base
// graph, the connector traversal spans [max(1, ⌈L/k⌉), ⌊U/k⌋] hops. (For
// the paper's Listing 1 — L=2, U=10, k=2 — this yields *1..5.)
//
// The rewrite is result-preserving: at each length l in [L, U] the chain
// must bind exactly the schema walks that l/k connector edges bind, and
// none at all where k does not divide l; and it must bind some walk at
// some length, or the equality is vacuous. (On the bipartite lineage schema
// job-to-job walks have even lengths, so only k=2 passes; on a
// homogeneous schema odd lengths exist and every k>1 is refused — those
// rewritings are the paper's "approximate" homogeneous scenarios.)
func overKHopConnector(q gql.Query, m *gql.MatchQuery, kc views.KHopConnector, schema *graph.Schema) (gql.Query, error) {
	if kc.DedupPairs {
		return nil, fmt.Errorf("rewrite: %s keeps one edge per vertex pair, not one per path", kc.Name())
	}
	c, err := chainOf(m)
	if err != nil {
		return nil, err
	}
	n := len(c.steps)
	if !slices.Equal(c.labels[0], typed(kc.SrcType)) || !slices.Equal(c.labels[n], typed(kc.DstType)) {
		return nil, fmt.Errorf("rewrite: the chain's ends are typed %v and %v; %s connects %q to %q",
			c.labels[0], c.labels[n], kc.Name(), kc.SrcType, kc.DstType)
	}
	// The chain's interior vertices and its edges vanish into connector
	// edges: a connector edge is not the path it contracts.
	interior := make(map[string]bool)
	for _, v := range c.vars[1:n] {
		interior[v] = v != ""
	}
	for _, e := range c.steps {
		interior[e.Var] = e.Var != ""
	}
	// The variables RETURN and WHERE read.
	used := constraints.ProjectedVars(&gql.MatchQuery{Return: append(slices.Clip(m.Return), gql.ReturnItem{Expr: m.Where})})
	for _, v := range used {
		if interior[v] {
			return nil, fmt.Errorf("rewrite: variable %s inside the chain is projected or filtered on; cannot contract", v)
		}
	}
	edgeVar, edgeVars, varSteps := "r_conn", 0, 0
	for _, e := range c.steps {
		if e.Var != "" {
			edgeVar = e.Var
			edgeVars++
		}
		if e.MinHops != e.MaxHops {
			varSteps++
		}
	}
	if edgeVars > 1 {
		return nil, fmt.Errorf("rewrite: the chain binds %d edge variables; at most one survives contraction", edgeVars)
	}
	if varSteps > 1 {
		return nil, fmt.Errorf("rewrite: the chain has %d variable-length steps; its labels have no fixed positions", varSteps)
	}
	lo, hi := c.span()
	newLo, newHi := max((lo+kc.K-1)/kc.K, 1), hi/kc.K
	if newHi < newLo {
		return nil, fmt.Errorf("rewrite: the chain spans %d..%d hops; no multiple of k=%d fits", lo, hi, kc.K)
	}
	binds := false
	for l := lo; l <= hi; l++ {
		got := live(schema, c.layout(l))
		binds = binds || slices.Contains(got.at[0], true)
		if l > 0 && l%kc.K == 0 {
			if !reflect.DeepEqual(got, live(schema, connectorLayout(kc, l/kc.K))) {
				return nil, fmt.Errorf("rewrite: at %d hops the chain binds other schema walks than %d %s edges", l, l/kc.K, kc.Name())
			}
		} else if slices.Contains(got.at[0], true) {
			return nil, fmt.Errorf("rewrite: the chain matches %d-hop walks, which no whole number of %s edges covers", l, kc.Name())
		}
	}
	if !binds {
		return nil, fmt.Errorf("rewrite: the chain binds no schema walk; it matches nothing")
	}
	nm := &gql.MatchQuery{Where: m.Where, Return: m.Return, Patterns: []gql.PathPattern{{
		Nodes: []gql.NodePattern{{Var: c.vars[0], Type: kc.SrcType}, {Var: c.vars[n], Type: kc.DstType}},
		Edges: []gql.EdgePattern{{
			Var:       edgeVar,
			Type:      kc.Name(),
			VarLength: newLo != 1 || newHi != 1,
			MinHops:   newLo,
			MaxHops:   newHi,
		}},
	}}}
	return gql.ReplaceInnermostMatch(q, nm), nil
}

// connectorLayout lays j edges of kc out as a walk of j·k hops: SrcType
// at the first position, DstType at the last, both at the k-th positions
// between (each ends one connector edge and starts the next), and
// EdgeTypes on every hop.
func connectorLayout(kc views.KHopConnector, j int) walk {
	src, dst := typed(kc.SrcType), typed(kc.DstType)
	var edges label
	if len(kc.EdgeTypes) > 0 {
		edges = kc.EdgeTypes
	}
	w := walk{at: []label{src}}
	for i := 1; i <= j*kc.K; i++ {
		w.hops = append(w.hops, edges)
		switch {
		case i == j*kc.K:
			w.at = append(w.at, dst)
		case i%kc.K == 0:
			w.at = append(w.at, src.and(dst))
		default:
			w.at = append(w.at, nil)
		}
	}
	return w
}

// --- the schema typing ---

// label is the set of type names a walk position or hop may bind; nil
// means any type.
type label []string

func typed(t string) label {
	if t == "" {
		return nil
	}
	return label{t}
}

func (a label) allows(t string) bool { return a == nil || slices.Contains(a, t) }

// and intersects two labels.
func (a label) and(b label) label {
	if a == nil {
		return b
	}
	out := label{}
	for _, t := range a {
		if b.allows(t) {
			out = append(out, t)
		}
	}
	return out
}

// walk is a pattern laid out as a walk: a label per position and a label
// per hop.
type walk struct {
	at, hops []label
}

// typing is the schema typing of one walk: at[i][v] reports whether the
// v-th of schema.VertexTypes() is live at position i, hops[i][e] whether
// the e-th of schema.EdgeTypes() is live on hop i. A typing with nothing
// live is empty: no schema walk agrees with the labels.
type typing struct {
	at   [][]bool
	hops [][]bool
}

// live types w. A vertex type or schema edge is live where it lies on
// some schema walk from w's first position to its last that agrees with
// every label of w: forward reachability from the first position
// intersected with backward reachability from the last.
func live(schema *graph.Schema, w walk) typing {
	at, hop := w.at, w.hops
	vertexTypes, edgeTypes := schema.VertexTypes(), schema.EdgeTypes()
	index := make(map[string]int, len(vertexTypes))
	for i, v := range vertexTypes {
		index[v] = i
	}
	fwd := make([][]bool, len(at))
	fwd[0] = make([]bool, len(vertexTypes))
	for i, v := range vertexTypes {
		fwd[0][i] = at[0].allows(v)
	}
	for i, h := range hop {
		fwd[i+1] = make([]bool, len(vertexTypes))
		for _, e := range edgeTypes {
			if fwd[i][index[e.From]] && h.allows(e.Name) && at[i+1].allows(e.To) {
				fwd[i+1][index[e.To]] = true
			}
		}
	}
	t := typing{at: make([][]bool, len(at)), hops: make([][]bool, len(hop))}
	t.at[len(hop)] = fwd[len(hop)]
	for i := len(hop) - 1; i >= 0; i-- {
		t.at[i], t.hops[i] = make([]bool, len(vertexTypes)), make([]bool, len(edgeTypes))
		for j, e := range edgeTypes {
			if fwd[i][index[e.From]] && hop[i].allows(e.Name) && t.at[i+1][index[e.To]] {
				t.at[i][index[e.From]], t.hops[i][j] = true, true
			}
		}
	}
	return t
}

// --- pattern shapes ---

// chain is a run of forward steps: steps[i] joins vertex i to vertex
// i+1, and vertex i has the variable vars[i] ("" when anonymous) and the
// label labels[i].
type chain struct {
	vars   []string
	labels []label
	steps  []gql.EdgePattern
}

// span returns the shortest and longest walk the chain matches. Apply
// has refused steps with no upper bound.
func (c chain) span() (lo, hi int) {
	for _, e := range c.steps {
		lo, hi = lo+e.MinHops, hi+e.MaxHops
	}
	return lo, hi
}

// layout lays the chain out as a walk of l hops, for l in its span. The
// chain's one variable-length step, if any, takes the hops the fixed
// steps leave; its interior vertices are untyped.
func (c chain) layout(l int) walk {
	lo, _ := c.span()
	w := walk{at: []label{c.labels[0]}}
	for i, e := range c.steps {
		hops := e.MinHops
		if e.MaxHops != e.MinHops {
			hops += l - lo
		}
		for range hops {
			w.hops = append(w.hops, typed(e.Type))
			w.at = append(w.at, nil)
		}
		w.at[len(w.at)-1] = w.at[len(w.at)-1].and(c.labels[i+1])
	}
	return w
}

// steps splits m into one-step chains, one per edge pattern, and a
// zero-step chain per lone vertex.
func steps(m *gql.MatchQuery) []chain {
	var out []chain
	for _, p := range m.Patterns {
		if len(p.Edges) == 0 {
			out = append(out, chain{labels: []label{typed(p.Nodes[0].Type)}})
		}
		for i, e := range p.Edges {
			from, to := p.Nodes[i], p.Nodes[i+1]
			if e.Reversed {
				from, to = to, from
			}
			out = append(out, chain{labels: []label{typed(from.Type), typed(to.Type)}, steps: []gql.EdgePattern{e}})
		}
	}
	return out
}

// chainOf orders m's steps, normalized to forward, into one simple chain
// through every vertex of the pattern, or says why they form none. A
// vertex's label intersects the types its variable is written with.
func chainOf(m *gql.MatchQuery) (chain, error) {
	type step struct {
		to   string
		edge gql.EdgePattern
	}
	var ids []string // vertex identities, in order of appearance
	vars := make(map[string]string)
	labels := make(map[string]label)
	next := make(map[string]step)
	into := make(map[string]bool)
	for pi, p := range m.Patterns {
		at := make([]string, len(p.Nodes))
		for ni, n := range p.Nodes {
			at[ni] = n.Var
			if n.Var == "" {
				at[ni] = fmt.Sprintf("%d.%d", pi, ni) // no variable is spelled so
			}
			if _, seen := vars[at[ni]]; !seen {
				ids = append(ids, at[ni])
				vars[at[ni]] = n.Var
			}
			labels[at[ni]] = labels[at[ni]].and(typed(n.Type))
		}
		for ei, e := range p.Edges {
			from, to := at[ei], at[ei+1]
			if e.Reversed {
				from, to = to, from
				e.Reversed = false
			}
			if _, dup := next[from]; dup || into[to] {
				return chain{}, fmt.Errorf("rewrite: the pattern branches; a connector contracts one chain")
			}
			next[from] = step{to, e}
			into[to] = true
		}
	}
	var c chain
	starts := 0
	at := ""
	for _, id := range ids {
		if !into[id] {
			starts++
			at = id
		}
	}
	if starts == 1 {
		for {
			c.vars = append(c.vars, vars[at])
			c.labels = append(c.labels, labels[at])
			s, ok := next[at]
			if !ok {
				break
			}
			c.steps = append(c.steps, s.edge)
			at = s.to
		}
	}
	if starts != 1 || len(c.steps) == 0 || len(c.steps) < len(next) {
		return chain{}, fmt.Errorf("rewrite: the pattern is not one simple chain of edges")
	}
	return c, nil
}
