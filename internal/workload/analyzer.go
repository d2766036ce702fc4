// Package workload implements Kaskade's workload analyzer (§V-B): given
// a query workload and a space budget, it enumerates candidate views for
// every query, prices them with the §V-A cost model, formulates view
// selection as 0/1 knapsack (weight = estimated view size, value =
// workload performance improvement divided by creation cost), and
// materializes the chosen views into a catalog used for view-based query
// rewriting (§V-C). It also defines the Table IV evaluation queries.
package workload

import (
	"fmt"
	"math"
	"sort"

	"kaskade/internal/cost"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/knapsack"
	"kaskade/internal/stats"
	"kaskade/internal/views"
)

// Analyzer drives view selection over a workload of one schema. It
// holds no state between calls, so an Analyzer is safe for concurrent
// use.
type Analyzer struct {
	schema *graph.Schema
}

// NewAnalyzer returns an analyzer for graphs of the given schema.
func NewAnalyzer(schema *graph.Schema) *Analyzer {
	return &Analyzer{schema: schema}
}

// Enumerate runs view enumeration (§IV) for one query.
func (a *Analyzer) Enumerate(q gql.Query) (*enum.Result, error) {
	return (&enum.Enumerator{Schema: a.schema}).Enumerate(q)
}

// Evaluated is a candidate view priced against the workload.
type Evaluated struct {
	Candidate      enum.Candidate
	EstimatedEdges float64
	CreationCost   float64
	// Improvement is Σ_q EvalCost(q) / EvalCost(rewrite(q, v)) over the
	// queries the view applies to (§V-B).
	Improvement float64
	// Value is Improvement / CreationCost — the knapsack item value.
	Value float64
	// Rewrites maps workload query index -> the query rewritten over
	// the view. The catalog proves each rewriting again at query time
	// (§V-C).
	Rewrites map[int]gql.Query
	Chosen   bool
}

// Selection is the outcome of view selection.
type Selection struct {
	Candidates []*Evaluated // all priced candidates, deterministic order
	Chosen     []*Evaluated // knapsack winners (subset of Candidates)
	Budget     int64
	TotalValue float64
}

// Analyze runs view selection for the workload under a space budget
// expressed in edges (§V-B's knapsack capacity; the paper uses a
// fraction of memory — edges are our unit of storage). All queries are
// weighted equally; use AnalyzeWeighted to prioritize frequent or
// expensive queries.
func (a *Analyzer) Analyze(g *graph.Graph, queries []gql.Query, budgetEdges int64) (*Selection, error) {
	return a.AnalyzeWeighted(g, queries, nil, budgetEdges)
}

// AnalyzeWeighted is Analyze with per-query weights — §V-B's extension:
// "adding weights to the value of each query to reflect its relative
// importance (e.g., based on the query's frequency ... or estimated
// execution time)". A nil weights slice means uniform weight 1; a
// query's contribution to every applicable view's improvement is
// multiplied by its weight.
func (a *Analyzer) AnalyzeWeighted(g *graph.Graph, queries []gql.Query, weights []float64, budgetEdges int64) (*Selection, error) {
	if weights != nil && len(weights) != len(queries) {
		return nil, fmt.Errorf("workload: %d weights for %d queries", len(weights), len(queries))
	}
	props := cost.Collect(g)

	// Enumerate per query and merge candidates by view identity.
	merged := make(map[string]*Evaluated)
	var order []string
	for qi, q := range queries {
		res, err := a.Enumerate(q)
		if err != nil {
			return nil, fmt.Errorf("workload: enumerating query %d: %w", qi, err)
		}
		baseCost, err := cost.EvalCost(q, props, a.schema, cost.DefaultAlpha)
		if err != nil {
			return nil, err
		}
		weight := 1.0
		if weights != nil {
			weight = weights[qi]
		}
		for _, cand := range res.Candidates {
			ev, err := a.evaluate(g, props, cand, baseCost)
			if err != nil {
				return nil, err
			}
			key := cand.View.Name()
			existing, ok := merged[key]
			if !ok {
				existing = &Evaluated{
					Candidate:      cand,
					EstimatedEdges: ev.EstimatedEdges,
					CreationCost:   ev.CreationCost,
					Rewrites:       make(map[int]gql.Query),
				}
				merged[key] = existing
				order = append(order, key)
			}
			existing.Improvement += weight * ev.Improvement
			existing.Rewrites[qi] = cand.Rewritten
		}
	}

	sel := &Selection{Budget: budgetEdges}
	var items []knapsack.Item
	for _, key := range order {
		ev := merged[key]
		if ev.CreationCost > 0 {
			ev.Value = ev.Improvement / ev.CreationCost
		}
		sel.Candidates = append(sel.Candidates, ev)
		items = append(items, knapsack.Item{
			Weight: int64(math.Ceil(ev.EstimatedEdges)),
			Value:  ev.Value,
		})
	}
	picked, total := knapsack.Solve(items, budgetEdges)
	sel.TotalValue = total
	for _, idx := range picked {
		sel.Candidates[idx].Chosen = true
		sel.Chosen = append(sel.Chosen, sel.Candidates[idx])
	}
	return sel, nil
}

// evaluate prices one candidate for the query it was enumerated for:
// estimated size, creation cost, and the improvement factor of the
// candidate's rewritten query over the base query's cost.
func (a *Analyzer) evaluate(g *graph.Graph, props *cost.GraphProperties, cand enum.Candidate, baseCost float64) (*Evaluated, error) {
	var est float64
	var vprops *cost.GraphProperties
	switch v := cand.View.(type) {
	case views.KHopConnector:
		var err error
		if est, err = cost.EstimateKHopPaths(props, a.schema, v.K, cost.DefaultAlpha); err != nil {
			return nil, err
		}
		if vprops, err = estimatedConnectorProps(props, v); err != nil {
			return nil, err
		}
	case views.TypeFilter:
		nv, ne := summarizerSize(g, v)
		est, vprops = float64(ne), estimatedSummarizerProps(props, v, nv, ne)
	default:
		return nil, fmt.Errorf("workload: no size estimate for %s", v.Name())
	}
	rwCost, err := cost.EvalCost(cand.Rewritten, vprops, nil, cost.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	improvement := 0.0
	if rwCost > 0 {
		improvement = baseCost / rwCost
	}
	return &Evaluated{
		EstimatedEdges: est,
		CreationCost:   cost.CreationCost(est),
		Improvement:    improvement,
	}, nil
}

// estimatedConnectorProps builds the predicted graph properties of a
// connector view before materialization. The per-hop fan-out of the view
// is priced on the same basis as the base graph: one contracted edge
// spans k base hops, so deg_α(view) = deg_α(base)^k. This keeps the
// improvement ratio a function of plan structure (join levels saved)
// rather than of mismatched statistics.
func estimatedConnectorProps(base *cost.GraphProperties, v views.KHopConnector) (*cost.GraphProperties, error) {
	nSrc, nDst := base.NumVertices, base.NumVertices
	if s, ok := base.ByType[v.SrcType]; ok && v.SrcType != "" {
		nSrc = s.Count
	}
	if s, ok := base.ByType[v.DstType]; ok && v.DstType != "" {
		nDst = s.Count
	}
	baseDeg, err := base.Overall.Degree(cost.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	deg := int(math.Pow(float64(baseDeg), float64(v.K)))
	flat := stats.DegreeSummary{Count: nSrc, P50: deg, P90: deg, P95: deg, Max: deg}
	byType := map[string]stats.DegreeSummary{}
	total := nSrc
	if v.SrcType != "" {
		byType[v.SrcType] = flat
		if v.DstType != v.SrcType {
			byType[v.DstType] = stats.DegreeSummary{Count: nDst}
			total += nDst
		}
	}
	overall := flat
	overall.Count = total
	return &cost.GraphProperties{
		NumVertices: total,
		NumEdges:    nSrc * deg,
		ByType:      byType,
		Overall:     overall,
	}, nil
}

// estimatedSummarizerProps predicts the summarized graph's properties by
// keeping the per-type summaries of surviving types.
func estimatedSummarizerProps(base *cost.GraphProperties, f views.TypeFilter, nv, ne int) *cost.GraphProperties {
	byType := map[string]stats.DegreeSummary{}
	total := 0
	for t, s := range base.ByType {
		if f.KeepsVertexType(t) {
			byType[t] = s
			total += s.Count
		}
	}
	overall := base.Overall
	overall.Count = total
	return &cost.GraphProperties{
		NumVertices: nv,
		NumEdges:    ne,
		ByType:      byType,
		Overall:     overall,
	}
}

// summarizerSize counts the filtered graph's size without building it
// (filters admit exact cheap cardinalities, §V-A).
func summarizerSize(g *graph.Graph, f views.TypeFilter) (nv, ne int) {
	fz := g.Freeze()
	kept := make([]bool, fz.NumVertices())
	for _, t := range g.VertexTypes() {
		if f.KeepsVertexType(t) {
			vs := fz.VerticesOfType(t)
			for _, v := range vs {
				kept[v] = true
			}
			nv += len(vs)
		}
	}
	keepE := views.EdgeTypeMask(fz, f.KeepsEdgeType)
	for i := range fz.NumEdges() {
		if e := graph.EdgeID(i); keepE[fz.EdgeTypeIDOf(e)] && kept[fz.From(e)] && kept[fz.To(e)] {
			ne++
		}
	}
	return nv, ne
}

// Describe renders the selection as an aligned table for the CLI.
func (s *Selection) Describe() string {
	rows := make([]string, 0, len(s.Candidates))
	cands := append([]*Evaluated(nil), s.Candidates...)
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Value > cands[j].Value })
	for _, ev := range cands {
		mark := " "
		if ev.Chosen {
			mark = "*"
		}
		rows = append(rows, fmt.Sprintf("%s %-40s est_edges=%-12.0f value=%.3g",
			mark, ev.Candidate.View.Name(), ev.EstimatedEdges, ev.Value))
	}
	out := fmt.Sprintf("budget=%d edges, %d candidates, %d chosen\n", s.Budget, len(s.Candidates), len(s.Chosen))
	for _, r := range rows {
		out += r + "\n"
	}
	return out
}
