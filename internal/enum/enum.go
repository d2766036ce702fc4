// Package enum implements Kaskade's inference-based view enumeration
// (§IV-B): view templates are Prolog rules (Listing 3 for connectors,
// Listing 5 for summarizers); the constraint miner's explicit facts and
// mining rules are injected into the inference engine; and candidate
// views are the solutions of the template goals. The injected query
// constraints are what prune the search space from the O(M^k) schema-path
// explosion to the handful of candidates feasible for the query (§IV-A2).
package enum

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"kaskade/internal/constraints"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/prolog"
	"kaskade/internal/views"
)

// Templates is Kaskade's view template library, expressed as inference
// rules: Listing 3's k-hop connector and three summarizer templates in
// the spirit of Listing 5 — the "prune to what the query touches" views
// the evaluation uses. It holds a template only for a view class that
// rewrite.Apply has a rule for. Listing 3's same-vertex-type and
// source-to-sink connectors are left out: no rule can use their
// candidates, which would cost space and selection time and earn
// nothing. The library is extensible: additional rules can be consulted
// into the enumerator's machine.
const Templates = `
% ---- connector templates (Listing 3) ----

% k-hop connector between nodes X and Y. Both endpoints must be
% projected out of the MATCH clause (§IV-B: a rewriting may only keep the
% vertices the rest of the query can see).
kHopConnector(X, Y, XTYPE, YTYPE, K) :-
    % query constraints
    queryVertexType(X, XTYPE),
    queryVertexType(Y, YTYPE),
    queryVertexProjected(X),
    queryVertexProjected(Y),
    queryKHopPath(X, Y, K),
    % schema constraints
    schemaKHopPath(XTYPE, YTYPE, K).

% ---- summarizer templates (in the spirit of Listing 5) ----

% A vertex-inclusion summarizer keeping exactly the vertex types the
% query touches is feasible whenever the query names at least one type.
summarizerKeepVertexTypes(TS) :-
    setof(T, queryUsedVertexType(T), TS).

% Schema vertex types the query never touches can be removed.
summarizerRemoveVertexType(T) :-
    schemaVertex(T),
    not(queryUsedVertexType(T)).

% Edge types explicitly used by the query.
queryUsedEdgeType(T) :- queryEdgeType(_, _, T).
summarizerKeepEdgeTypes(TS) :-
    setof(T, queryUsedEdgeType(T), TS).
`

// Candidate is one enumerated view.
type Candidate struct {
	View views.View
	// Template names the Prolog rule that produced the candidate.
	Template string
}

// Result is the outcome of one enumeration run.
type Result struct {
	Candidates []Candidate
	// Solutions counts raw template solutions before deduplication.
	Solutions int
	// Steps is the number of inference steps the engine spent — the
	// search-effort metric of the constraint-injection ablation.
	Steps int64
}

// Enumerator generates candidate views for queries over a schema.
//
// The first Enumerate consults the rule program (library predicates,
// mining rules, templates, ExtraRules and the schema facts) into a base
// machine, once; every call then runs on a fork of it that adds only the
// query's own facts. Schema and ExtraRules are therefore read on the
// first Enumerate, and later edits to them have no effect. An Enumerator
// is safe for concurrent use and must not be copied after first use.
type Enumerator struct {
	Schema *graph.Schema
	// MaxK bounds enumerated k-hop connectors (paper: k ≤ 10). Zero
	// means DefaultMaxK.
	MaxK int
	// ExtraRules are additional template/mining rules to consult
	// (KASKADE's library is "readily extensible", §IV).
	ExtraRules string

	once    sync.Once
	base    *prolog.Machine
	stubs   []*prolog.Clause
	baseErr error
}

// DefaultMaxK bounds the k of enumerated k-hop connectors.
const DefaultMaxK = 10

func (e *Enumerator) maxK() int {
	if e.MaxK > 0 {
		return e.MaxK
	}
	return DefaultMaxK
}

// queryStubs defines every query-fact predicate with a never-succeeding
// clause. Some queries have no variable-length paths or no typed edges;
// the mining rules still reference those predicates, so each gets a stub
// rather than erroring as unknown. (A dummy *fact* would poison the
// recursive path rules with cycles.) The stubs follow the query's facts.
const queryStubs = `
queryVariableLengthPath(_, _, _, _) :- fail.
queryEdge(_, _) :- fail.
queryEdgeType(_, _, _) :- fail.
queryVertexType(_, _) :- fail.
queryVertex(_) :- fail.
queryVertexProjected(_) :- fail.
`

// program consults the query-independent rule program into a base
// machine and parses the query stubs, once per Enumerator.
func (e *Enumerator) program() (*prolog.Machine, []*prolog.Clause, error) {
	e.once.Do(func() {
		stubs, err := prolog.ParseProgram(queryStubs)
		if err != nil {
			e.baseErr = fmt.Errorf("enum: query stubs: %w", err)
			return
		}
		pm := prolog.NewMachine()
		for _, part := range []struct{ name, src string }{
			{"mining rules", constraints.MiningRules},
			{"templates", Templates},
			{"extra rules", e.ExtraRules},
		} {
			if err := pm.ConsultString(part.src); err != nil {
				e.baseErr = fmt.Errorf("enum: %s: %w", part.name, err)
				return
			}
		}
		sf, err := constraints.SchemaFacts(e.Schema)
		if err != nil {
			e.baseErr = err
			return
		}
		if err := pm.ConsultString(strings.Join(sf, "\n")); err != nil {
			e.baseErr = fmt.Errorf("enum: schema facts: %w", err)
			return
		}
		e.base, e.stubs = pm, stubs
	})
	return e.base, e.stubs, e.baseErr
}

// machine forks the base machine and adds the query's facts, then the
// query stubs: the clause order of one machine consulting the whole
// program as text, so solutions and step counts match it exactly.
func (e *Enumerator) machine(m *gql.MatchQuery) (*prolog.Machine, error) {
	base, stubs, err := e.program()
	if err != nil {
		return nil, err
	}
	facts, err := constraints.QueryFacts(m)
	if err != nil {
		return nil, err
	}
	facts = append(facts, constraints.ProjectedFacts(m)...)
	pm := base.Fork()
	if err := pm.ConsultString(strings.Join(facts, "\n")); err != nil {
		return nil, fmt.Errorf("enum: facts: %w", err)
	}
	for _, c := range stubs {
		if err := pm.Assertz(c); err != nil {
			return nil, err
		}
	}
	return pm, nil
}

// Enumerate generates the candidate views for a query (§IV-B). The
// returned candidates are deduplicated by view name, in deterministic
// SLD solution order.
func (e *Enumerator) Enumerate(q gql.Query) (*Result, error) {
	m := gql.InnermostMatch(q)
	if m == nil {
		return nil, fmt.Errorf("enum: query has no MATCH block")
	}
	pm, err := e.machine(m)
	if err != nil {
		return nil, err
	}
	return e.solve(pm)
}

// solve runs the template goals on a machine holding the program and one
// query's facts, and collects the candidates.
func (e *Enumerator) solve(pm *prolog.Machine) (*Result, error) {
	res := &Result{}
	seen := make(map[string]bool)
	add := func(c Candidate) {
		if name := c.View.Name(); !seen[name] {
			seen[name] = true
			res.Candidates = append(res.Candidates, c)
		}
	}

	// k-hop connectors (k >= 2: a 1-hop "connector" is the base edge).
	goal := fmt.Sprintf("kHopConnector(X, Y, XT, YT, K), K >= 2, K =< %d", e.maxK())
	sols, err := pm.Query(goal, 0)
	if err != nil {
		return nil, fmt.Errorf("enum: kHopConnector: %w", err)
	}
	res.Steps += pm.Steps()
	res.Solutions += len(sols)
	for _, s := range sols {
		if bogus(s.Atom("XT")) || bogus(s.Atom("YT")) {
			continue
		}
		add(Candidate{
			View: views.KHopConnector{
				SrcType: s.Atom("XT"),
				DstType: s.Atom("YT"),
				K:       int(s.Int("K")),
			},
			Template: "kHopConnector",
		})
	}

	// Vertex-inclusion summarizer keeping the query's vertex types.
	sols, err = pm.Query("summarizerKeepVertexTypes(TS)", 0)
	if err != nil {
		return nil, fmt.Errorf("enum: summarizerKeepVertexTypes: %w", err)
	}
	res.Steps += pm.Steps()
	res.Solutions += len(sols)
	for _, s := range sols {
		ts := atomList(s, "TS")
		if len(ts) == 0 {
			continue
		}
		add(Candidate{
			View:     views.VertexInclusionSummarizer{Types: ts},
			Template: "summarizerKeepVertexTypes",
		})
	}

	// Vertex-removal summarizer dropping untouched schema types
	// (aggregate all removable types into one candidate).
	sols, err = pm.Query("summarizerRemoveVertexType(T)", 0)
	if err != nil {
		return nil, fmt.Errorf("enum: summarizerRemoveVertexType: %w", err)
	}
	res.Steps += pm.Steps()
	res.Solutions += len(sols)
	var removable []string
	for _, s := range sols {
		if t := s.Atom("T"); t != "" && !bogus(t) {
			removable = append(removable, t)
		}
	}
	if len(removable) > 0 {
		sort.Strings(removable)
		add(Candidate{
			View:     views.VertexRemovalSummarizer{Types: removable},
			Template: "summarizerRemoveVertexType",
		})
	}

	// Edge-inclusion summarizer keeping the query's edge types.
	sols, err = pm.Query("summarizerKeepEdgeTypes(TS)", 0)
	if err != nil {
		return nil, fmt.Errorf("enum: summarizerKeepEdgeTypes: %w", err)
	}
	res.Steps += pm.Steps()
	res.Solutions += len(sols)
	for _, s := range sols {
		ts := atomList(s, "TS")
		if len(ts) == 0 {
			continue
		}
		add(Candidate{
			View:     views.EdgeInclusionSummarizer{Types: ts},
			Template: "summarizerKeepEdgeTypes",
		})
	}

	return res, nil
}

// UnconstrainedSchemaPaths enumerates schema k-hop paths *without* query
// constraints — the search space the paper's §IV-A2 describes as at least
// M^k in cyclic schemas. Returns the solution count and the inference
// steps spent; the ablation compares these against a constrained run.
func UnconstrainedSchemaPaths(schema *graph.Schema, maxK int) (solutions int, steps int64, err error) {
	pm := prolog.NewMachine()
	if err := pm.ConsultString(constraints.MiningRules); err != nil {
		return 0, 0, err
	}
	sf, err := constraints.SchemaFacts(schema)
	if err != nil {
		return 0, 0, err
	}
	if err := pm.ConsultString(strings.Join(sf, "\n")); err != nil {
		return 0, 0, err
	}
	goal := fmt.Sprintf("between(2, %d, K), schemaKHopPath(X, Y, K)", maxK)
	sols, err := pm.Query(goal, 0)
	if err != nil {
		return 0, 0, err
	}
	return len(sols), pm.Steps(), nil
}

// bogus filters the placeholder facts asserted so mining rules never hit
// unknown predicates.
func bogus(atom string) bool { return atom == "__none" }

func atomList(s prolog.Solution, name string) []string {
	elems, ok := prolog.ListSlice(s.Get(name))
	if !ok {
		return nil
	}
	var out []string
	for _, e := range elems {
		// Solution terms are resolved, so an atom element is an Atom.
		if a, ok := e.(prolog.Atom); ok && a != "" && !bogus(string(a)) {
			out = append(out, string(a))
		}
	}
	return out
}
