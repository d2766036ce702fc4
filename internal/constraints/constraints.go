// Package constraints implements Kaskade's constraint miner (§IV-A): it
// extracts explicit constraints (Prolog facts) from the query's MATCH
// clause and from the graph schema, and carries the library of constraint
// mining rules (Listings 2 and 6 of the paper) that derive implicit
// constraints — valid k-hop schema paths, query path lengths,
// source/sink-ness — which are injected into the inference engine at view
// enumeration time to prune the candidate space.
//
// The package also contains the procedural version of schemaKHopPath
// (Alg. 1 in the paper's appendix), kept for the search-space ablation
// experiment.
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

// DefaultMaxHops bounds unbounded variable-length patterns when emitting
// facts, matching the paper's working assumption of k ≤ 10 (§IV-B).
const DefaultMaxHops = 10

// QueryFacts converts a MATCH clause into explicit Prolog facts
// (§IV-A1): queryVertex/1, queryVertexType/2, queryEdge/2,
// queryEdgeType/3, and queryVariableLengthPath/4. Anonymous pattern
// elements receive synthesized names. Reversed edge patterns are emitted
// in their forward orientation.
func QueryFacts(m *gql.MatchQuery) ([]string, error) {
	if m == nil {
		return nil, fmt.Errorf("constraints: query has no MATCH block")
	}
	var facts []string
	seenVertex := make(map[string]bool)
	anon := 0

	vertexName := func(n gql.NodePattern, pi, ni int) string {
		if n.Var != "" {
			return n.Var
		}
		anon++
		return fmt.Sprintf("anon_%d_%d", pi, ni)
	}
	emitVertex := func(name, vtype string) {
		if !seenVertex[name] {
			seenVertex[name] = true
			facts = append(facts, fmt.Sprintf("queryVertex(%s).", quoteAtom(name)))
		}
		if vtype != "" {
			facts = append(facts, fmt.Sprintf("queryVertexType(%s, %s).", quoteAtom(name), quoteAtom(vtype)))
		}
	}

	for pi, pat := range m.Patterns {
		if len(pat.Nodes) == 0 {
			return nil, fmt.Errorf("constraints: empty pattern")
		}
		names := make([]string, len(pat.Nodes))
		for ni, n := range pat.Nodes {
			names[ni] = vertexName(n, pi, ni)
			emitVertex(names[ni], n.Type)
		}
		for ei, e := range pat.Edges {
			from, to := names[ei], names[ei+1]
			if e.Reversed {
				from, to = to, from
			}
			if e.VarLength {
				lo, hi := e.MinHops, e.MaxHops
				if hi < 0 {
					hi = DefaultMaxHops
				}
				facts = append(facts, fmt.Sprintf(
					"queryVariableLengthPath(%s, %s, %d, %d).", quoteAtom(from), quoteAtom(to), lo, hi))
				continue
			}
			facts = append(facts, fmt.Sprintf("queryEdge(%s, %s).", quoteAtom(from), quoteAtom(to)))
			if e.Type != "" {
				facts = append(facts, fmt.Sprintf(
					"queryEdgeType(%s, %s, %s).", quoteAtom(from), quoteAtom(to), quoteAtom(e.Type)))
			}
		}
	}
	// Deduplicate while preserving first-occurrence order (a vertex can
	// appear in several patterns).
	return dedupe(facts), nil
}

// ProjectedVars returns the variables the MATCH clause projects in its
// RETURN items (directly or via property access/aggregates) — the
// vertices a rewriting must preserve (§IV-B: "the only vertices projected
// out of the MATCH clause").
func ProjectedVars(m *gql.MatchQuery) []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(e gql.Expr)
	walk = func(e gql.Expr) {
		switch e := e.(type) {
		case *gql.Ident:
			if !seen[e.Name] {
				seen[e.Name] = true
				out = append(out, e.Name)
			}
		case *gql.PropAccess:
			if !seen[e.Base] {
				seen[e.Base] = true
				out = append(out, e.Base)
			}
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
	for _, item := range m.Return {
		walk(item.Expr)
	}
	return out
}

// SchemaFacts converts a graph schema into explicit Prolog facts
// (§IV-A1): schemaVertex/1 and schemaEdge/3.
func SchemaFacts(s *graph.Schema) ([]string, error) {
	if s == nil {
		return nil, fmt.Errorf("constraints: nil schema (Kaskade's enumeration mines schema constraints)")
	}
	var facts []string
	for _, vt := range s.VertexTypes() {
		facts = append(facts, fmt.Sprintf("schemaVertex(%s).", quoteAtom(vt)))
	}
	for _, et := range s.EdgeTypes() {
		facts = append(facts, fmt.Sprintf("schemaEdge(%s, %s, %s).",
			quoteAtom(et.From), quoteAtom(et.To), quoteAtom(et.Name)))
	}
	return facts, nil
}

// ProjectedFacts emits one queryVertexProjected/1 fact per variable
// ProjectedVars returns, in that order.
func ProjectedFacts(m *gql.MatchQuery) []string {
	vars := ProjectedVars(m)
	facts := make([]string, len(vars))
	for i, v := range vars {
		facts[i] = fmt.Sprintf("queryVertexProjected(%s).", quoteAtom(v))
	}
	return facts
}

// quoteAtom renders a name as a quoted Prolog atom, escaping the quote
// and the backslash, so any schema or query name reads back unchanged.
func quoteAtom(name string) string {
	return "'" + atomEscaper.Replace(name) + "'"
}

var atomEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

// MiningRules is the constraint mining rule library: the schema rule of
// Listing 2 and the query rules of Listing 6, essentially verbatim.
const MiningRules = `
% ---- schema constraint mining (Listing 2) ----
% Determine whether directed k-length paths between two node types X and
% Y are feasible over the input graph schema. When K is already bound
% (the usual case: view templates bind it from the query's constraints
% before consulting the schema), a bounded walk is used so that schema
% types may repeat along the path (a K=4 job-to-job path revisits Job and
% File). When K is unbound, the trail-guarded acyclic rule of Listing 2
% enumerates the finite set of type-acyclic feasible lengths.
schemaKHopPath(X, Y, K) :-
    ( integer(K) -> schemaKHopWalk(X, Y, K)
    ; schemaKHopAcyclic(X, Y, K, []) ).

schemaKHopWalk(X, Y, 1) :- schemaEdge(X, Y, _).
schemaKHopWalk(X, Y, K) :- K > 1,
    schemaEdge(X, Z, _), K1 is K - 1, schemaKHopWalk(Z, Y, K1).

schemaKHopAcyclic(X, Y, 1, _) :- schemaEdge(X, Y, _).
schemaKHopAcyclic(X, Y, K, Trail) :-
    schemaEdge(X, Z, _), not(member(Z, Trail)),
    schemaKHopAcyclic(Z, Y, K1, [X|Trail]), K is K1 + 1.

% Variable-length feasibility over the schema (any path, any length).
schemaPath(X, Y) :- schemaKHopAcyclic(X, Y, _, []).

% ---- query constraint mining (Listing 6) ----
% Query k-hop variable length paths
queryKHopVariableLengthPath(X, Y, K) :-
    queryVariableLengthPath(X, Y, LOWER, UPPER),
    between(LOWER, UPPER, K).

% Query k-hop paths. The trail keeps a path from revisiting a query
% vertex, so a cyclic pattern has finitely many paths (the last hop may
% close the cycle back to X).
queryKHopPath(X, Y, K) :- queryKHopPath(X, Y, K, [X]).
queryKHopPath(X, Y, 1, _) :- queryEdge(X, Y).
queryKHopPath(X, Y, K, _) :-
    queryKHopVariableLengthPath(X, Y, K), K >= 1.
queryKHopPath(X, Y, K, Trail) :- queryEdge(X, Z), not(member(Z, Trail)),
    queryKHopPath(Z, Y, K1, [Z|Trail]), K is K1 + 1.
queryKHopPath(X, Y, K, Trail) :-
    queryVariableLengthPath(X, Z, LOWER, UPPER), not(member(Z, Trail)),
    queryKHopPath(Z, Y, K1, [Z|Trail]),
    between(LOWER, UPPER, K2),
    K is K1 + K2.

% Query paths
queryPath(X, Y) :- queryEdge(X, Y).
queryPath(X, Y) :- queryVariableLengthPath(X, Y, _, _).
queryPath(X, Y) :- queryEdge(X, Z), queryPath(Z, Y).
queryPath(X, Y) :- queryVariableLengthPath(X, Z, _, _), queryPath(Z, Y).

% Query vertex source/sink
queryVertexSource(X) :- queryVertexInDegree(X, 0).
queryVertexSink(X) :- queryVertexOutDegree(X, 0).

% Query vertex in/out degrees
queryIncomingVertices(X, INLIST) :- queryVertex(X),
    findall(SRC, queryEdge(SRC, X), INLIST).
queryOutgoingVertices(X, OUTLIST) :- queryVertex(X),
    findall(DST, queryEdge(X, DST), OUTLIST).
queryVertexInDegree(X, D) :-
    queryIncomingVertices(X, INLIST), length(INLIST, D).
queryVertexOutDegree(X, D) :-
    queryOutgoingVertices(X, OUTLIST), length(OUTLIST, D).

% Vertex types used anywhere in the query (drives summarizer templates).
queryUsedVertexType(T) :- queryVertexType(_, T).
`

// KHopSchemaPathsProcedural is Alg. 1: the procedural version of the
// schemaKHopPath constraint mining rule. It returns all k-length schema
// paths as edge-type sequences. Unlike the declarative rule, it cannot be
// injected alongside the other inference rules, so it explores the whole
// schema-path space — the comparison backing the paper's claim that the
// Prolog formulation both simplifies and prunes (§IV-A2).
//
// The returned count of explored path extensions is the ablation metric.
func KHopSchemaPathsProcedural(edges []graph.EdgeType, k int) (paths [][]graph.EdgeType, explored int) {
	if k < 1 {
		return nil, 0
	}
	// Seed with 1-edge paths.
	cur := make([][]graph.EdgeType, 0, len(edges))
	for _, e := range edges {
		cur = append(cur, []graph.EdgeType{e})
		explored++
	}
	for length := 1; length < k; length++ {
		var next [][]graph.EdgeType
		for _, p := range cur {
			dst := p[len(p)-1].To
			src := p[0].From
			for _, e := range edges {
				// Extend at the tail.
				if dst == e.From {
					next = append(next, append(append([]graph.EdgeType{}, p...), e))
					explored++
				}
				// Extend at the front (Alg. 1 grows both ways).
				if src == e.To {
					next = append(next, append([]graph.EdgeType{e}, p...))
					explored++
				}
			}
		}
		cur = dedupePaths(next)
	}
	return cur, explored
}

func dedupePaths(ps [][]graph.EdgeType) [][]graph.EdgeType {
	seen := make(map[string]bool)
	var out [][]graph.EdgeType
	for _, p := range ps {
		var sb strings.Builder
		for _, e := range p {
			fmt.Fprintf(&sb, "%s|%s|%s;", e.From, e.Name, e.To)
		}
		k := sb.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return pathKey(out[i]) < pathKey(out[j])
	})
	return out
}

func pathKey(p []graph.EdgeType) string {
	var sb strings.Builder
	for _, e := range p {
		fmt.Fprintf(&sb, "%s|%s|%s;", e.From, e.Name, e.To)
	}
	return sb.String()
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
