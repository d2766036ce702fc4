// Package rewrite implements view-based query rewriting (§V-C). Apply is
// its one entry point and the one place that decides whether a view
// answers a query, by the view's class:
//
//   - a k-hop connector replaces the path segment between the
//     candidate's two anchor variables with a traversal of the
//     contracted connector edges, recomputing the variable-length
//     bounds (the Listing 1 → Listing 4 transformation);
//   - a type filter (views.TypeFilter) keeps the query text unchanged —
//     the rewrite is the redirection of the query to the filtered graph
//     — when it keeps every type the query names;
//   - every other class has no rule: its views are materialized and
//     listed, but no query is rewritten over them.
package rewrite

import (
	"errors"
	"fmt"

	"kaskade/internal/constraints"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/views"
)

// ErrNoRule is wrapped by Apply's error for a view class that has no
// rewrite rule.
var ErrNoRule = errors.New("no rewrite rule for the view class")

// step is one edge of the query's unified pattern graph, normalized to
// forward orientation.
type step struct {
	from, to string // vertex variable names
	fromType string
	toType   string
	edge     gql.EdgePattern
	pattern  int // index of the owning pattern (for reconstruction)
}

// Apply rewrites q over the view of cand — the returned query is meant
// to run against the view's materialization — or returns an error when
// no rule shows the view answers q. A nil schema skips the checks that
// need one, so a k-hop contraction is then only checked against the
// query's own shape.
func Apply(q gql.Query, cand enum.Candidate, schema *graph.Schema) (gql.Query, error) {
	m := gql.InnermostMatch(q)
	if m == nil {
		return nil, fmt.Errorf("rewrite: query has no MATCH block")
	}
	switch v := cand.View.(type) {
	case views.KHopConnector:
		return overKHopConnector(q, m, cand, v, schema)
	case views.TypeFilter:
		if err := keepsQueryTypes(m, v); err != nil {
			return nil, err
		}
		return q, nil
	}
	return nil, fmt.Errorf("rewrite: %s: %w", cand.View.Name(), ErrNoRule)
}

// overKHopConnector rewrites m to traverse kc's connector edges instead
// of the base-graph path between cand.SrcVar and cand.DstVar.
//
// Bound arithmetic: if the consumed segment spans path lengths [L, U] in
// the base graph, the connector traversal spans [max(1, ⌈L/k⌉), ⌊U/k⌋]
// hops. (For the paper's Listing 1 — L=2, U=10, k=2 — this yields *1..5.)
//
// With a schema the rewrite is also result-preserving. Every
// schema-feasible path length in the segment's span must be a multiple
// of k, so the connector reaches exactly the pairs the base query
// reaches. (On the bipartite lineage schema the job-to-job feasible
// lengths are {2,4,...}, so only k=2 passes; on a homogeneous schema
// every k>1 is rejected because odd lengths exist — those rewritings are
// the paper's "approximate" homogeneous scenarios.) The view graph holds
// only connector edges, so the segment must be the whole pattern, and
// the connector must contract paths over every edge type.
func overKHopConnector(q gql.Query, m *gql.MatchQuery, cand enum.Candidate, kc views.KHopConnector, schema *graph.Schema) (gql.Query, error) {
	if cand.SrcVar == "" || cand.DstVar == "" {
		return nil, fmt.Errorf("rewrite: candidate %s has no anchor variables", cand.View.Name())
	}
	steps := unifySteps(m)
	segment, err := chase(steps, cand.SrcVar, cand.DstVar)
	if err != nil {
		return nil, err
	}
	// Intermediate variables must not escape the segment.
	inner := make(map[string]bool)
	for _, s := range segment[:len(segment)-1] {
		inner[s.to] = true
	}
	for _, v := range constraints.ProjectedVars(m) {
		if inner[v] {
			return nil, fmt.Errorf("rewrite: intermediate variable %s is projected; cannot contract", v)
		}
	}
	if m.Where != nil {
		for _, v := range exprVars(m.Where) {
			if inner[v] {
				return nil, fmt.Errorf("rewrite: intermediate variable %s appears in WHERE; cannot contract", v)
			}
		}
	}
	// Hop-range arithmetic. hi caps an unbounded segment as a whole;
	// span, the range the schema check covers, caps each unbounded step.
	lo, hi, span := 0, 0, 0
	edgeVar := ""
	edgeVars := 0
	for _, s := range segment {
		lo += s.edge.MinHops
		if s.edge.MaxHops < 0 {
			hi = -1
			span += constraints.DefaultMaxHops
		} else {
			if hi >= 0 {
				hi += s.edge.MaxHops
			}
			span += s.edge.MaxHops
		}
		if s.edge.Var != "" {
			edgeVar = s.edge.Var
			edgeVars++
		}
	}
	if hi < 0 {
		hi = constraints.DefaultMaxHops
	}
	newLo := max((lo+kc.K-1)/kc.K, 1)
	newHi := hi / kc.K
	if newHi < newLo {
		return nil, fmt.Errorf("rewrite: segment spans %d..%d hops; no multiple of k=%d fits", lo, hi, kc.K)
	}
	if edgeVars > 1 {
		return nil, fmt.Errorf("rewrite: segment binds %d edge variables; at most one survives contraction", edgeVars)
	}
	if edgeVar == "" {
		edgeVar = "r_conn"
	}
	if schema != nil {
		if len(segment) < len(steps) || hasLoneVertex(m) {
			return nil, fmt.Errorf("rewrite: the pattern reaches beyond the %s..%s segment; the %s graph holds only connector edges",
				cand.SrcVar, cand.DstVar, kc.Name())
		}
		if len(kc.EdgeTypes) > 0 {
			return nil, fmt.Errorf("rewrite: %s contracts only %v paths; the segment's paths may use other edge types", kc.Name(), kc.EdgeTypes)
		}
		for _, l := range feasibleLengths(schema, kc.SrcType, kc.DstType, lo, span) {
			if l%kc.K != 0 {
				return nil, fmt.Errorf("rewrite: schema allows a %d-hop %s->%s path, not expressible over the %d-hop connector",
					l, kc.SrcType, kc.DstType, kc.K)
			}
		}
	}

	// Rebuild the MATCH: surviving steps plus the connector pattern.
	consumed := make(map[*gql.EdgePattern]bool)
	for i := range segment {
		consumed[segment[i].edgeRef] = true
	}
	nm := &gql.MatchQuery{Where: m.Where, Return: m.Return}
	for _, s := range steps {
		if consumed[s.edgeRef] {
			continue
		}
		nm.Patterns = append(nm.Patterns, gql.PathPattern{
			Nodes: []gql.NodePattern{
				{Var: s.from, Type: s.fromType},
				{Var: s.to, Type: s.toType},
			},
			Edges: []gql.EdgePattern{s.edge},
		})
	}
	connEdge := gql.EdgePattern{
		Var:       edgeVar,
		Type:      kc.Name(),
		VarLength: newLo != 1 || newHi != 1,
		MinHops:   newLo,
		MaxHops:   newHi,
	}
	nm.Patterns = append(nm.Patterns, gql.PathPattern{
		Nodes: []gql.NodePattern{
			{Var: cand.SrcVar, Type: kc.SrcType},
			{Var: cand.DstVar, Type: kc.DstType},
		},
		Edges: []gql.EdgePattern{connEdge},
	})
	return gql.ReplaceInnermostMatch(q, nm), nil
}

// hasLoneVertex reports whether m holds an edgeless vertex pattern,
// which no contraction consumes.
func hasLoneVertex(m *gql.MatchQuery) bool {
	for _, p := range m.Patterns {
		if len(p.Edges) == 0 {
			return true
		}
	}
	return false
}

// feasibleLengths returns the lengths in [lo, hi] for which the schema
// admits a directed path from srcType to dstType, by frontier expansion
// over the schema's type graph.
func feasibleLengths(schema *graph.Schema, srcType, dstType string, lo, hi int) []int {
	if srcType == "" || dstType == "" {
		// Untyped endpoints: every length is feasible.
		var all []int
		for l := max(lo, 1); l <= hi; l++ {
			all = append(all, l)
		}
		return all
	}
	var out []int
	frontier := map[string]bool{srcType: true}
	for l := 1; l <= hi; l++ {
		next := map[string]bool{}
		for t := range frontier {
			for _, et := range schema.EdgeTypesFrom(t) {
				next[et.To] = true
			}
		}
		frontier = next
		if l >= lo && l >= 1 && frontier[dstType] {
			out = append(out, l)
		}
		if len(frontier) == 0 {
			break
		}
	}
	return out
}

// keepsQueryTypes is the type filters' rule: q runs unchanged on the
// filtered graph when f keeps every vertex and edge type q names.
func keepsQueryTypes(m *gql.MatchQuery, f views.TypeFilter) error {
	for _, pat := range m.Patterns {
		for _, n := range pat.Nodes {
			if n.Type != "" && !f.KeepsVertexType(n.Type) {
				return fmt.Errorf("rewrite: query uses vertex type %s, which %s drops", n.Type, f.Name())
			}
		}
		for _, e := range pat.Edges {
			if e.Type != "" && !f.KeepsEdgeType(e.Type) {
				return fmt.Errorf("rewrite: query uses edge type %s, which %s drops", e.Type, f.Name())
			}
		}
	}
	return nil
}

// --- pattern graph helpers ---

// stepRef extends step with the identity of the original edge
// pattern, needed to mark steps consumed.
type stepRef struct {
	step
	edgeRef *gql.EdgePattern
}

// unifySteps flattens all patterns into forward-oriented steps. Anonymous
// vertices get synthesized names matching the constraint miner's.
func unifySteps(m *gql.MatchQuery) []stepRef {
	var steps []stepRef
	for pi := range m.Patterns {
		pat := &m.Patterns[pi]
		names := make([]string, len(pat.Nodes))
		for ni, n := range pat.Nodes {
			if n.Var != "" {
				names[ni] = n.Var
			} else {
				names[ni] = fmt.Sprintf("anon_%d_%d", pi, ni)
			}
		}
		for ei := range pat.Edges {
			e := &pat.Edges[ei]
			s := stepRef{
				step: step{
					from:     names[ei],
					to:       names[ei+1],
					fromType: pat.Nodes[ei].Type,
					toType:   pat.Nodes[ei+1].Type,
					edge:     *e,
					pattern:  pi,
				},
				edgeRef: e,
			}
			if e.Reversed {
				s.from, s.to = s.to, s.from
				s.fromType, s.toType = s.toType, s.fromType
				s.edge.Reversed = false
			}
			steps = append(steps, s)
		}
	}
	return steps
}

// chase walks the unique forward chain from src to dst through the step
// graph, returning the steps it consumed (at least one).
func chase(steps []stepRef, src, dst string) ([]stepRef, error) {
	if src == dst {
		return nil, fmt.Errorf("rewrite: both anchors are %s; a connector contracts a path between two vertices", src)
	}
	out := make(map[string][]stepRef)
	for _, s := range steps {
		out[s.from] = append(out[s.from], s)
	}
	var segment []stepRef
	at := src
	seen := map[string]bool{src: true}
	for at != dst {
		nexts := out[at]
		if len(nexts) == 0 {
			return nil, fmt.Errorf("rewrite: no path from %s to %s in the query pattern", src, dst)
		}
		if len(nexts) > 1 {
			return nil, fmt.Errorf("rewrite: pattern branches at %s; cannot contract a unique segment", at)
		}
		s := nexts[0]
		segment = append(segment, s)
		at = s.to
		if seen[at] {
			return nil, fmt.Errorf("rewrite: pattern cycles at %s", at)
		}
		seen[at] = true
	}
	return segment, nil
}

func exprVars(e gql.Expr) []string {
	var out []string
	var walk func(gql.Expr)
	walk = func(e gql.Expr) {
		switch e := e.(type) {
		case *gql.Ident:
			out = append(out, e.Name)
		case *gql.PropAccess:
			out = append(out, e.Base)
		case *gql.BinaryExpr:
			walk(e.Left)
			walk(e.Right)
		case *gql.UnaryExpr:
			walk(e.Operand)
		case *gql.FuncCall:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}
