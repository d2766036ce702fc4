// Package constraints holds what is left of Kaskade's constraint miner
// (§IV-A) once the query's own schema typing (rewrite.Candidates) drives
// view enumeration: the variables a query reads outside its MATCH
// pattern, and the two unconstrained counts of the §IV-A2 search-space
// ablation — the procedural Alg. 1 of the paper's appendix and the
// number of schema edge-walks an unconstrained k-hop enumeration faces.
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
)

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

// SchemaWalks counts the schema edge-walks of every length 2..maxK: the
// sequences of schema edges in which each edge starts at the vertex type
// the previous one ends at. It is the space an enumeration without query
// constraints searches, which grows like M^k on a cyclic schema
// (§IV-A2). A dynamic program over the walks' end types counts it
// without listing a walk.
func SchemaWalks(edges []graph.EdgeType, maxK int) int {
	ending := make(map[string]int) // walks of the current length, by end type
	for _, e := range edges {
		ending[e.To]++
	}
	total := 0
	for k := 2; k <= maxK; k++ {
		next := make(map[string]int, len(ending))
		for _, e := range edges {
			next[e.To] += ending[e.From]
			total += ending[e.From]
		}
		ending = next
	}
	return total
}

// KHopSchemaPathsProcedural is Alg. 1: the procedural version of the
// schemaKHopPath constraint mining rule. It returns all k-length schema
// paths as edge-type sequences. It knows nothing of the query, so it
// explores the whole schema-path space, growing paths at both ends — the
// comparison backing the paper's claim that injecting the query's
// constraints prunes the search (§IV-A2).
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
