// Package cost implements Kaskade's graph view cost model (§V-A):
// per-type graph data properties (vertex cardinalities and coarse
// out-degree percentile summaries), the three k-length-path/view-size
// estimators (Erdős–Rényi Eq. 1, homogeneous Eq. 2, heterogeneous Eq. 3),
// view creation cost, and a query evaluation cost proxy standing in for
// Neo4j's cost-based optimizer.
package cost

import (
	"fmt"
	"math"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/stats"
)

// DefaultAlpha is the degree percentile Kaskade uses in production: the
// paper found α=95 provides an upper bound for most real-world graphs
// while 50 ≤ α ≤ 95 brackets the actual size (§V-A, §VII-D).
const DefaultAlpha = 95

// GraphProperties are the statistics maintained during loading/updates
// (§V-A "Graph data properties"): vertex cardinality and out-degree
// summaries per vertex type, plus whole-graph aggregates.
type GraphProperties struct {
	NumVertices int
	NumEdges    int
	ByType      map[string]stats.DegreeSummary
	Overall     stats.DegreeSummary
}

// Collect computes graph properties with exact percentiles. (A real
// deployment would maintain these incrementally; exactness keeps the
// evaluation honest at our scales.)
func Collect(g *graph.Graph) *GraphProperties {
	p := &GraphProperties{
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		ByType:      make(map[string]stats.DegreeSummary),
		Overall:     stats.Summarize(g, ""),
	}
	for _, t := range g.VertexTypes() {
		p.ByType[t] = stats.Summarize(g, t)
	}
	return p
}

// ErdosRenyiPaths is Eq. (1): the expected number of k-length simple
// paths in a G(n, m) random graph, C(n, k+1) · (m / C(n,2))^k. The paper
// shows it underestimates real-world graphs by orders of magnitude; it is
// kept for the Fig. 5 comparison.
func ErdosRenyiPaths(n, m int64, k int) float64 {
	if n < int64(k)+1 || n < 2 || k < 1 {
		return 0
	}
	// Work in logs to survive large n.
	logChoose := func(n int64, r int64) float64 {
		if r < 0 || r > n {
			return math.Inf(-1)
		}
		s := 0.0
		for i := int64(0); i < r; i++ {
			s += math.Log(float64(n-i)) - math.Log(float64(i+1))
		}
		return s
	}
	logP := math.Log(float64(m)) - logChoose(n, 2)
	logE := logChoose(n, int64(k)+1) + float64(k)*logP
	return math.Exp(logE)
}

// EstimateHomogeneousPaths is Eq. (2): n · deg_α^k for a graph with a
// single vertex type.
func EstimateHomogeneousPaths(p *GraphProperties, k, alpha int) (float64, error) {
	deg, err := p.Overall.Degree(alpha)
	if err != nil {
		return 0, err
	}
	return float64(p.NumVertices) * math.Pow(float64(deg), float64(k)), nil
}

// EstimateHeterogeneousPaths is Eq. (3): Σ_{t ∈ T_G} n_t · deg_α(t)^k,
// where T_G is the set of vertex types that are the domain of at least
// one edge type in the schema.
func EstimateHeterogeneousPaths(p *GraphProperties, schema *graph.Schema, k, alpha int) (float64, error) {
	if schema == nil {
		return 0, fmt.Errorf("cost: heterogeneous estimator requires a schema")
	}
	total := 0.0
	for _, t := range schema.SourceTypes() {
		s, ok := p.ByType[t]
		if !ok {
			continue
		}
		deg, err := s.Degree(alpha)
		if err != nil {
			return 0, err
		}
		total += float64(s.Count) * math.Pow(float64(deg), float64(k))
	}
	return total, nil
}

// EstimateKHopPaths dispatches to the homogeneous or heterogeneous
// estimator based on the schema (§V-A). It estimates the number of
// k-length paths, which equals the edge count of a k-hop connector view.
func EstimateKHopPaths(p *GraphProperties, schema *graph.Schema, k, alpha int) (float64, error) {
	if schema == nil || schema.IsHomogeneous() {
		return EstimateHomogeneousPaths(p, k, alpha)
	}
	return EstimateHeterogeneousPaths(p, schema, k, alpha)
}

// CreationCost models the cost of computing and materializing a view.
// §V-A: the I/O cost dominates, so creation cost is directly proportional
// to the view's estimated size (we use unit proportionality).
func CreationCost(estimatedEdges float64) float64 { return estimatedEdges }

// EvalCost is the query evaluation cost proxy (the paper defers to
// Neo4j's cost-based optimizer; we model the dominant term of pattern
// matching: candidate starts times per-hop fan-out, summed over
// variable-length bounds). It only needs to order plans reasonably —
// absolute values are meaningless, exactly like a real optimizer's cost.
func EvalCost(q gql.Query, p *GraphProperties, schema *graph.Schema, alpha int) (float64, error) {
	m := gql.InnermostMatch(q)
	if m == nil {
		return 0, fmt.Errorf("cost: query has no MATCH block")
	}
	total := 0.0
	for _, pat := range stitchChains(m.Patterns) {
		c, err := patternCost(pat, p, schema, alpha)
		if err != nil {
			return 0, err
		}
		total += c
	}
	// SELECT wrappers add linear passes over the result; dominated by
	// matching, so omitted like the paper's computational costs.
	return total, nil
}

// stitchChains merges patterns that chain on shared endpoint variables
// (Listing 1 splits one logical chain over three MATCH patterns; pricing
// them independently would ignore the joins).
func stitchChains(pats []gql.PathPattern) []gql.PathPattern {
	chains := make([]gql.PathPattern, 0, len(pats))
	for _, p := range pats {
		chains = append(chains, clonePattern(p))
	}
	for changed := true; changed; {
		changed = false
	outer:
		for i := range chains {
			for j := range chains {
				if i == j {
					continue
				}
				li, lj := chains[i], chains[j]
				endVar := li.Nodes[len(li.Nodes)-1].Var
				if endVar != "" && endVar == lj.Nodes[0].Var {
					merged := clonePattern(li)
					merged.Nodes = append(merged.Nodes, lj.Nodes[1:]...)
					merged.Edges = append(merged.Edges, lj.Edges...)
					rest := make([]gql.PathPattern, 0, len(chains)-1)
					for k := range chains {
						if k != i && k != j {
							rest = append(rest, chains[k])
						}
					}
					chains = append(rest, merged)
					changed = true
					break outer
				}
			}
		}
	}
	return chains
}

func clonePattern(p gql.PathPattern) gql.PathPattern {
	return gql.PathPattern{
		Nodes: append([]gql.NodePattern(nil), p.Nodes...),
		Edges: append([]gql.EdgePattern(nil), p.Edges...),
	}
}

func patternCost(pat gql.PathPattern, p *GraphProperties, schema *graph.Schema, alpha int) (float64, error) {
	if len(pat.Nodes) == 0 {
		return 0, nil
	}
	starts := float64(p.NumVertices)
	if t := pat.Nodes[0].Type; t != "" {
		if s, ok := p.ByType[t]; ok {
			starts = float64(s.Count)
		} else {
			starts = 0
		}
	}
	cost := starts
	rows := starts
	for i, e := range pat.Edges {
		srcType := pat.Nodes[i].Type
		if e.Reversed {
			srcType = pat.Nodes[i+1].Type
		}
		var mult float64
		if e.VarLength {
			// Variable-length segments traverse interior vertices of
			// arbitrary types (on heterogeneous graphs they alternate),
			// so the per-hop fan-out is the whole graph's deg_α rather
			// than the endpoint type's.
			b, err := branching(p, "", alpha)
			if err != nil {
				return 0, err
			}
			lo, hi := e.MinHops, e.MaxHops
			if hi < 0 {
				hi = maxReasonableHops
			}
			mult = geometricSum(b, lo, hi)
		} else {
			b, err := branching(p, srcType, alpha)
			if err != nil {
				return 0, err
			}
			mult = b
		}
		rows *= mult
		cost += rows
	}
	return cost, nil
}

// maxReasonableHops bounds unbounded variable-length patterns in the
// cost model (matching the paper's k≤10 working assumption in §IV-B).
const maxReasonableHops = 10

// branching returns the per-hop fan-out: deg_α of the source vertex type
// when known, the overall deg_α otherwise. A fan-out below 1 is clamped
// to 1 so chains do not price below their start count.
func branching(p *GraphProperties, srcType string, alpha int) (float64, error) {
	s := p.Overall
	if srcType != "" {
		if ts, ok := p.ByType[srcType]; ok {
			s = ts
		}
	}
	d, err := s.Degree(alpha)
	if err != nil {
		return 0, err
	}
	if d < 1 {
		return 1, nil
	}
	return float64(d), nil
}

// geometricSum returns Σ_{k=lo..hi} b^k (with b^0 = 1).
func geometricSum(b float64, lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	sum := 0.0
	for k := lo; k <= hi; k++ {
		sum += math.Pow(b, float64(k))
	}
	return sum
}
