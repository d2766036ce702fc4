package harness

import (
	"fmt"
	"io"

	"kaskade/internal/constraints"
	"kaskade/internal/datagen"
	"kaskade/internal/enum"
	"kaskade/internal/gql"
)

// BlastRadiusQuery is the paper's Listing 1, used throughout the
// evaluation and in the ablation.
const BlastRadiusQuery = `
SELECT A.pipelineName, AVG(T_CPU) FROM (
  SELECT A, SUM(B.CPU) AS T_CPU FROM (
    MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)
          (q_f1:File)-[r*0..8]->(q_f2:File)
          (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)
    RETURN q_j1 AS A, q_j2 AS B
  ) GROUP BY A, B
) GROUP BY A.pipelineName`

// AblationRow compares, at one maximum k, the candidates enumeration
// proposes from the query's typing against the search spaces of
// (a) unconstrained schema-walk enumeration and (b) the procedural
// Alg. 1 — the §IV-A2 claim that injected query constraints prune the
// M^k schema-path space to a handful of feasible instantiations.
type AblationRow struct {
	MaxK int
	// Candidates enumeration proposes for the query.
	ConstrainedCandidates int
	// Schema edge-walks of length 2..MaxK (schema constraints only).
	UnconstrainedSolutions int
	// Procedural Alg. 1 over the same schema.
	ProceduralPaths    int
	ProceduralExplored int
}

// Ablation runs the §IV-A search-space comparison over the full prov
// schema (which contains a Task->Task cycle, the M^k worst case) for a
// range of k bounds.
func Ablation() ([]AblationRow, error) {
	schema := datagen.ProvSchema()
	q := gql.MustParse(BlastRadiusQuery)
	var rows []AblationRow
	for _, maxK := range []int{2, 4, 6, 8, 10} {
		en := &enum.Enumerator{Schema: schema, MaxK: maxK}
		res, err := en.Enumerate(q)
		if err != nil {
			return nil, err
		}
		paths, explored := constraints.KHopSchemaPathsProcedural(schema.EdgeTypes(), maxK)
		rows = append(rows, AblationRow{
			MaxK:                   maxK,
			ConstrainedCandidates:  len(res.Candidates),
			UnconstrainedSolutions: constraints.SchemaWalks(schema.EdgeTypes(), maxK),
			ProceduralPaths:        len(paths),
			ProceduralExplored:     explored,
		})
	}
	return rows, nil
}

// PrintAblation renders the comparison.
func PrintAblation(w io.Writer, rows []AblationRow) {
	header := []string{"max_k", "constrained_candidates", "unconstrained_solutions", "alg1_paths", "alg1_explored"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.MaxK),
			fmt.Sprintf("%d", r.ConstrainedCandidates),
			fmt.Sprintf("%d", r.UnconstrainedSolutions),
			fmt.Sprintf("%d", r.ProceduralPaths),
			fmt.Sprintf("%d", r.ProceduralExplored),
		})
	}
	fmt.Fprintln(w, "§IV-A ablation: query-typed enumeration vs. unconstrained schema walks vs. procedural Alg. 1 (prov schema, cyclic)")
	table(w, header, cells)
}
