package core

import (
	"context"
	"testing"

	"kaskade/internal/exec"
	"kaskade/internal/gql"
)

// TestSelectOverMatchAllocations is the allocation-regression guard on
// the relational tail: Listing 1 over the jj connector on the 150-job
// prov summary, whose SELECT GROUP BY A, B aggregates inside its MATCH's
// yield. The guard divides a warm execution's allocations by the rows
// the inner MATCH yields. Each of those rows boxes its path and its end
// vertex as it binds them, and each new (A, B) group costs a handful
// more: 2.9 per row in all. Buffering the rows, copying each into a map, or
// formatting its group key adds whole allocations per row; the buffered
// tail paid 6.2.
func TestSelectOverMatchAllocations(t *testing.T) {
	ctx := context.Background()
	_, summary := gapProv(t)
	sys := New(summary)
	if _, err := sys.Exec(ctx, createJJ); err != nil {
		t.Fatal(err)
	}
	stmt, err := sys.Prepare(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stmt.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName == "" {
		t.Fatal("Listing 1 did not plan over the jj connector")
	}
	inner, err := (&exec.Executor{G: plan.Graph}).ExecuteContext(ctx, gql.InnermostMatch(plan.Query))
	if err != nil {
		t.Fatal(err)
	}
	rows := len(inner.Rows)
	if rows < 5000 {
		t.Fatalf("graph too small for a meaningful guard: %d inner rows", rows)
	}
	if _, err := stmt.ExecContext(ctx); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := stmt.ExecContext(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(rows); perRow > 4 {
		t.Errorf("Listing 1 allocates %.2f objects per inner row (%.0f for %d rows), want <= 4", perRow, allocs, rows)
	}
}
