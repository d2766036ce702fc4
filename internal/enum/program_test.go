package enum

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kaskade/internal/constraints"
	"kaskade/internal/datagen"
	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/prolog"
	"kaskade/internal/rewrite"
	"kaskade/internal/views"
)

// referenceMachine is the construction the shared rule program replaced,
// kept as the oracle: a fresh machine that consults the mining rules,
// templates, extra rules, schema facts and query facts as text, then the
// query stubs.
func referenceMachine(e *Enumerator, m *gql.MatchQuery) (*prolog.Machine, error) {
	pm := prolog.NewMachine()
	for _, src := range []string{constraints.MiningRules, Templates, e.ExtraRules} {
		if err := pm.ConsultString(src); err != nil {
			return nil, err
		}
	}
	sf, err := constraints.SchemaFacts(e.Schema)
	if err != nil {
		return nil, err
	}
	qf, err := constraints.QueryFacts(m)
	if err != nil {
		return nil, err
	}
	facts := append(append(sf, qf...), constraints.ProjectedFacts(m)...)
	if err := pm.ConsultString(strings.Join(facts, "\n")); err != nil {
		return nil, err
	}
	if err := pm.ConsultString(queryStubs); err != nil {
		return nil, err
	}
	return pm, nil
}

func referenceEnumerate(e *Enumerator, q gql.Query) (*Result, error) {
	pm, err := referenceMachine(e, gql.InnermostMatch(q))
	if err != nil {
		return nil, err
	}
	return e.solve(pm)
}

// adhocShapes are the four ad hoc query shapes of the repository
// benchmark's planning workload: selective scans, a grouped count and a
// one-hop join.
var adhocShapes = []string{
	`MATCH (j:Job) WHERE j.CPU > 999 RETURN j.name AS name, j.CPU AS cpu`,
	`MATCH (f:File) WHERE f.size < 1000 RETURN f.name AS name, f.size AS size`,
	`MATCH (j:Job) WHERE j.pipelineName = "pipeline0" AND j.CPU > 0 RETURN COUNT(*) AS n`,
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = "job100" RETURN f.name AS name`,
}

// workloadShapes are pattern-query forms of the Table IV workload, Q1-Q8,
// over a dataset whose per-source queries anchor at type {T}: a 2-hop
// connection (Q1's contraction), ancestors and descendants (Q2, Q3),
// path lengths (Q4), edge and vertex counts (Q5, Q6) and community
// membership and size (Q7, Q8).
var workloadShapes = []string{
	`MATCH (a:{T})-[r*2..2]->(b:{T}) RETURN a, b`,
	`MATCH (a:{T})<-[r*1..4]-(b:{T}) RETURN a, b`,
	`MATCH (a:{T})-[r*1..4]->(b:{T}) RETURN a, b`,
	`MATCH (a:{T})-[r*1..4]->(b:{T}) RETURN a, COUNT(b) AS n`,
	`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	`MATCH (v) RETURN COUNT(*) AS n`,
	`MATCH (v:{T}) RETURN v.community AS c, COUNT(v) AS n`,
	`MATCH (v:{T})-[e]->(w:{T}) WHERE v.community = w.community RETURN v.community AS c, COUNT(w) AS n`,
}

// extraRules adds a file-to-file schema edge (making odd job-to-job k
// feasible) and a rule deriving projected vertices from sources: clauses
// the base program holds ahead of the query's facts.
const extraRules = `
schemaEdge('File', 'File', 'COPIED_TO').
queryVertexProjected(X) :- queryVertexSource(X).
`

type corpusCase struct {
	name   string
	schema *graph.Schema
	maxK   int
	extra  string
	query  string
}

// key names the Enumerator configuration a case runs under.
func (c corpusCase) key() string {
	return fmt.Sprintf("%p/%d/%q", c.schema, c.maxK, c.extra)
}

// oracleCorpus is the enum tests' queries, the ad hoc planning shapes,
// the Q1-Q8 shapes over the four datasets' schemas, and an ExtraRules
// case.
func oracleCorpus() []corpusCase {
	lineage, prov := lineageSchema(), datagen.ProvSchema()
	chain := `MATCH (a:Job)-[:WRITES_TO]->(b:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`
	cases := []corpusCase{
		{"blast/lineage", lineage, 10, "", blastRadius},
		{"blast/prov", prov, 10, "", blastRadius},
		{"blast/prov/k8", prov, 8, "", blastRadius},
		{"chain/lineage/k6", lineage, 6, "", chain},
		{"extra/blast", lineage, 10, extraRules, blastRadius},
		{"extra/chain", lineage, 10, extraRules, chain},
	}
	for i, text := range adhocShapes {
		cases = append(cases, corpusCase{fmt.Sprintf("adhoc/%d", i), prov, 0, "", text})
	}
	for _, ds := range []struct {
		name   string
		schema *graph.Schema
		source string
	}{
		{"prov", prov, "Job"},
		{"dblp", datagen.DBLPSchema(), "Author"},
		{"roadnet", datagen.RoadNetSchema(), "Intersection"},
		{"soc", datagen.SocialSchema(), "User"},
	} {
		if ds.name == "prov" {
			cases = append(cases, corpusCase{"Q1/prov", ds.schema, 0, "", blastRadius})
		}
		for i, shape := range workloadShapes {
			cases = append(cases, corpusCase{
				fmt.Sprintf("Q%d/%s", i+1, ds.name), ds.schema, 0, "", strings.ReplaceAll(shape, "{T}", ds.source),
			})
		}
	}
	return cases
}

// corpusRun enumerates every corpus case on shared per-configuration
// Enumerators and compares each result with the fresh-machine reference.
func corpusRun(cases []corpusCase, shared map[string]*Enumerator, want []*Result) error {
	for i, c := range cases {
		got, err := shared[c.key()].Enumerate(gql.MustParse(c.query))
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		if err := sameResult(got, want[i]); err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
	}
	return nil
}

func sameResult(got, want *Result) error {
	if got.Solutions != want.Solutions || got.Steps != want.Steps {
		return fmt.Errorf("solutions/steps = %d/%d, reference %d/%d",
			got.Solutions, got.Steps, want.Solutions, want.Steps)
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		return fmt.Errorf("candidates = %+v\nreference  %+v", got.Candidates, want.Candidates)
	}
	return nil
}

// oracle builds the shared Enumerators (one per configuration, so one
// rule program serves every case under it) and the reference results.
func oracle(t *testing.T) ([]corpusCase, map[string]*Enumerator, []*Result) {
	t.Helper()
	cases := oracleCorpus()
	shared := make(map[string]*Enumerator)
	want := make([]*Result, len(cases))
	for i, c := range cases {
		if shared[c.key()] == nil {
			shared[c.key()] = &Enumerator{Schema: c.schema, MaxK: c.maxK, ExtraRules: c.extra}
		}
		res, err := referenceEnumerate(shared[c.key()], gql.MustParse(c.query))
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		want[i] = res
	}
	return cases, shared, want
}

// TestEnumerateMatchesFreshMachine pins the forked machine to the
// fresh-machine reference: identical candidates, solution counts and
// inference steps over the whole corpus, twice over, so the second pass
// runs on forks of an already-used base program.
func TestEnumerateMatchesFreshMachine(t *testing.T) {
	cases, shared, want := oracle(t)
	for pass := 0; pass < 2; pass++ {
		if err := corpusRun(cases, shared, want); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	// The corpus must exercise the templates, not just agree on nothing,
	// and every template must yield views a rewrite rule can use.
	templates := map[string]bool{}
	for i, res := range want {
		for _, c := range res.Candidates {
			templates[c.Template] = true
			_, err := rewrite.Apply(gql.MustParse(cases[i].query), c.View, cases[i].schema)
			if errors.Is(err, rewrite.ErrNoRule) {
				t.Errorf("%s: %s (%s) has no rewrite rule", cases[i].name, c.View.Name(), c.Template)
			}
		}
	}
	if len(templates) != 4 {
		t.Errorf("corpus yields candidates from %d templates, want all 4: %v", len(templates), templates)
	}
}

// TestConcurrentEnumerateSharedProgram runs the corpus from 8 goroutines
// on the same Enumerators, whose first use (building the base program)
// races too; every result must match the reference.
func TestConcurrentEnumerateSharedProgram(t *testing.T) {
	cases, shared, want := oracle(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := corpusRun(cases, shared, want); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestEnumerateWarmAllocations guards the warm path: with the rule
// program built, enumerating the one-hop ad hoc join allocates only for
// its own facts and inference. Consulting the program per query costs
// about 4,100 allocations.
func TestEnumerateWarmAllocations(t *testing.T) {
	e := &Enumerator{Schema: datagen.ProvSchema()}
	q := gql.MustParse(adhocShapes[3])
	if _, err := e.Enumerate(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.Enumerate(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1600 {
		t.Errorf("warm Enumerate allocates %.0f objects/op, want <= 1600", allocs)
	}
}

// TestQuotedSchemaNames enumerates over a schema whose type names carry a
// quote and a backslash: the facts must parse, and the summarizers must
// name those types exactly. The query language has no quoted labels, so
// the second query gets its quoted type by editing the parsed pattern.
func TestQuotedSchemaNames(t *testing.T) {
	schema := graph.MustSchema(
		[]string{"Job", "O'Brien", `Back\slash`},
		[]graph.EdgeType{
			{From: "Job", To: "O'Brien", Name: "OWNS"},
			{From: `Back\slash`, To: "Job", Name: "RUNS"},
		},
	)
	e := &Enumerator{Schema: schema}
	summarizers := func(q gql.Query) map[string][]string {
		t.Helper()
		res, err := e.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for _, c := range res.Candidates {
			switch v := c.View.(type) {
			case views.VertexRemovalSummarizer:
				out["remove"] = v.Types
			case views.VertexInclusionSummarizer:
				out["keep"] = v.Types
			}
		}
		return out
	}
	if got, want := summarizers(gql.MustParse(`MATCH (j:Job) RETURN j`))["remove"], []string{`Back\slash`, "O'Brien"}; !reflect.DeepEqual(got, want) {
		t.Errorf("removable types = %q, want %q", got, want)
	}
	q := gql.MustParse(`MATCH (j:Job)-[:OWNS]->(o:Owner) RETURN j, o`)
	q.(*gql.MatchQuery).Patterns[0].Nodes[1].Type = "O'Brien"
	if got, want := summarizers(q)["keep"], []string{"Job", "O'Brien"}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept types = %q, want %q", got, want)
	}
}
