// Package enum implements Kaskade's view enumeration (§IV-B): the
// candidate views for a query are the views a rewrite rule can use for
// it. rewrite.Candidates reads them off the rules' own schema typing —
// the k-hop connectors between the ends of the query's chain and the
// smallest type filters keeping every type the pattern can bind — so
// every candidate is one rewrite.Apply accepts. The query's typing is
// what prunes the search space from the O(M^k) schema walks to the
// handful of views feasible for the query (§IV-A2).
package enum

import (
	"fmt"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/rewrite"
	"kaskade/internal/views"
)

// Candidate is one enumerated view.
type Candidate struct {
	View views.View
	// Rewritten is the query rewritten over View, as rewrite.Apply
	// returns it.
	Rewritten gql.Query
}

// Result is the outcome of one enumeration run.
type Result struct {
	Candidates []Candidate
}

// Enumerator generates candidate views for queries over a schema. It
// holds no state between calls.
type Enumerator struct {
	Schema *graph.Schema
	// MaxK bounds enumerated k-hop connectors (paper: k ≤ 10). Zero
	// means DefaultMaxK.
	MaxK int
}

// DefaultMaxK bounds the k of enumerated k-hop connectors.
const DefaultMaxK = 10

// Enumerate generates the candidate views for a query (§IV-B), in
// rewrite.Candidates' order.
func (e *Enumerator) Enumerate(q gql.Query) (*Result, error) {
	if e.Schema == nil {
		return nil, fmt.Errorf("enum: no schema to type the query against")
	}
	if gql.InnermostMatch(q) == nil {
		return nil, fmt.Errorf("enum: query has no MATCH block")
	}
	maxK := e.MaxK
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	vs, rws := rewrite.Candidates(q, e.Schema, maxK)
	res := &Result{Candidates: make([]Candidate, len(vs))}
	for i, v := range vs {
		res.Candidates[i] = Candidate{View: v, Rewritten: rws[i]}
	}
	return res, nil
}
