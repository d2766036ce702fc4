package main

import (
	"fmt"
	"math/rand"

	"kaskade"
	"kaskade/internal/datagen"
)

// dataSeed fixes the dataset. -seed drives the op sequences only: on the
// prov generator a different seed moves blast-radius latency by more
// than 2x (the hub jobs change), which would drown every bound in
// between-seed spread instead of measuring the program.
const dataSeed = 1

// viewBudget is the SelectViews space budget in edges. The §V-A
// estimate for the 2-hop Job→Job connector is ~1.1M edges on the
// summarized graph (it materializes at ~13.6k), so the budget has to
// sit above the estimate for the connector to be chosen at all.
const viewBudget = 5_000_000

// The prepared lineage statements.
const (
	// stmtBlast is the paper's Listing 1.
	stmtBlast = `
SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 AS A, q_j2 AS B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`
	stmtProj  = `MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a, c`
	stmtGroup = `SELECT A, COUNT(B) AS n FROM (
  MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a AS A, c AS B
) GROUP BY A`
	// stmtProjNames is the projection in a form the wire can carry: the
	// daemon renders a vertex reference with its graph-local ID, which
	// differs between the base graph and a connector view.
	stmtProjNames = `MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN a.name AS a, c.name AS c`
)

// connectorDef is the view the lineage statements rewrite over and
// mutate_maintain maintains.
var connectorDef = kaskade.KHopConnector{SrcType: "Job", DstType: "Job", K: 2}

// lineageTexts are the prepared lineage statements, in stmtKeys order.
var lineageTexts = []string{stmtBlast, stmtProj, stmtGroup}

// serviceMix is the kaskade-loadgen default mix (its grouped aggregate
// keyed by job name rather than by reference, see stmtProjNames) plus
// the large projection.
var serviceMix = []string{
	`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN COUNT(*) AS n`,
	`SELECT A, COUNT(B) AS n FROM (
  MATCH (q_j:Job)-[:WRITES_TO]->(q_f:File) RETURN q_j.name AS A, q_f AS B
) GROUP BY A`,
	`MATCH (x:Job)-[p*2..2]->(y:Job) RETURN COUNT(*) AS n`,
	stmtProjNames,
}

// genRaw generates the unsummarized prov graph at the given scale.
func genRaw(scale float64) (*kaskade.Graph, error) {
	return datagen.Generate(datagen.NameProv, scale, dataSeed)
}

// summarizeProv applies the evaluation's schema-level summarizer.
func summarizeProv(raw *kaskade.Graph) (*kaskade.Graph, error) {
	return kaskade.VertexInclusionSummarizer{Types: []string{"Job", "File"}}.Materialize(raw)
}

// selectiveTexts returns n distinct short selective query texts from
// four templates with literal parameters. Text i uses template i%4, so a
// Zipf draw over indices spreads its head across all four shapes, and
// parameters start at each template's most selective value.
func selectiveTexts(n int) []string {
	out := make([]string, n)
	for i := range out {
		p := i / 4
		switch i % 4 {
		case 0:
			out[i] = fmt.Sprintf(`MATCH (j:Job) WHERE j.CPU > %d RETURN j.name AS name, j.CPU AS cpu`, 999-p)
		case 1:
			out[i] = fmt.Sprintf(`MATCH (f:File) WHERE f.size < %d RETURN f.name AS name, f.size AS size`, 1000*(p+1))
		case 2:
			out[i] = fmt.Sprintf(`MATCH (j:Job) WHERE j.pipelineName = "pipeline%d" AND j.CPU > %d RETURN COUNT(*) AS n`, p%50, 100*(p/50))
		default:
			// Past the low-index hub jobs, whose outputs run to thousands.
			out[i] = fmt.Sprintf(`MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = "job%d" RETURN f.name AS name`, 100+p)
		}
	}
	return out
}

// scheduleLen is the length of a precomputed op schedule; a run cycles
// through it, so the op at index i is a pure function of the seed.
const scheduleLen = 8192

// zipfSchedule draws scheduleLen indices in [0, n) from Zipf(1.1).
func zipfSchedule(rng *rand.Rand, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	out := make([]int, scheduleLen)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// weightedSchedule repeats each kind by its weight, then shuffles whole
// cycles by the seed: every cycle keeps the exact mix, so proportions do
// not depend on the seed or on where a run stops.
func weightedSchedule(rng *rand.Rand, weights []int) []int {
	var cycle []int
	for kind, w := range weights {
		for i := 0; i < w; i++ {
			cycle = append(cycle, kind)
		}
	}
	var out []int
	for len(out)+len(cycle) <= scheduleLen {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		out = append(out, cycle...)
	}
	return out
}

// clientRNG derives one client's op-sequence RNG from the run seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}
