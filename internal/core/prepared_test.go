package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"kaskade/internal/exec"
)

// TestPreparedMatchesAdHoc: a prepared query must return exactly what
// Query returns, before views exist, and again after an epoch bump —
// without being re-prepared.
func TestPreparedMatchesAdHoc(t *testing.T) {
	sys := testSystem(t)
	p, err := sys.Prepare(blastRadius)
	if err != nil {
		t.Fatal(err)
	}

	want, err := sys.Query(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("prepared result diverged from ad-hoc (no views)")
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName != "" {
		t.Fatalf("plan uses view %q with empty catalog", plan.ViewName)
	}

	// Adopt views: the catalog epoch bumps and the very same prepared
	// query must transparently re-rewrite onto the connector.
	epoch := sys.Catalog().Epoch()
	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AdoptSelection(sel); err != nil {
		t.Fatal(err)
	}
	if sys.Catalog().Epoch() == epoch {
		t.Fatal("AdoptSelection did not bump the catalog epoch")
	}

	want2, err := sys.Query(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want2, got2) {
		t.Fatal("prepared result diverged from ad-hoc (after adoption)")
	}
	plan2, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.ViewName == "" {
		t.Fatal("prepared plan ignored the newly materialized views")
	}

	// WithoutViews still bypasses the catalog on the same statement.
	raw, err := p.Exec(WithoutViews())
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := sys.QueryRaw(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRaw, raw) {
		t.Fatal("prepared WithoutViews diverged from QueryRaw")
	}
}

// TestPreparedPlanCachedWithinEpoch: consecutive executions at a stable
// epoch reuse the identical *Plan (pointer equality), proving the
// rewrite is skipped.
func TestPreparedPlanCachedWithinEpoch(t *testing.T) {
	sys := testSystem(t)
	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AdoptSelection(sel); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("plan re-rewritten despite stable epoch")
	}
}

// TestPreparedReplansAfterDropView pins the staleness fix: a statement
// whose cached plan was rewritten over a view must, after DropView,
// re-rewrite instead of executing the stale plan — and still return
// exactly the base-graph result.
func TestPreparedReplansAfterDropView(t *testing.T) {
	sys := testSystem(t)
	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AdoptSelection(sel); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Prepare(blastRadius)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec() // caches the view-rewritten plan
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName == "" {
		t.Fatal("plan does not use a view; nothing to drop")
	}

	epoch := sys.Catalog().Epoch()
	if !sys.DropView(plan.ViewName) {
		t.Fatalf("DropView(%q) = false", plan.ViewName)
	}
	if sys.Catalog().Epoch() == epoch {
		t.Fatal("DropView did not bump the catalog epoch")
	}

	plan2, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan2.ViewName == plan.ViewName {
		t.Fatalf("prepared plan still uses dropped view %q", plan.ViewName)
	}
	got, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result changed after DropView (views must never change semantics)")
	}

	// DropView of a name that was never materialized reports absence.
	if sys.DropView("NO_SUCH_VIEW") {
		t.Fatal("DropView of an unknown view returned true")
	}
}

// TestPreparedQueryOptions: per-execution options override prepare-time
// defaults, which override System fields.
func TestPreparedQueryOptions(t *testing.T) {
	sys := testSystem(t)
	const q = `MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f`

	// Prepare-time MaxRows trips...
	p, err := sys.Prepare(q, WithMaxRows(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(); !errors.Is(err, exec.ErrRowLimit) {
		t.Fatalf("prepare-time WithMaxRows(1): err = %v, want ErrRowLimit", err)
	}
	// ...unless a per-exec option lifts it.
	if _, err := p.Exec(WithMaxRows(0)); err != nil {
		t.Fatalf("per-exec WithMaxRows(0): %v", err)
	}
	// Workers options agree with sequential results.
	seq, err := p.Exec(WithMaxRows(0), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Exec(WithMaxRows(0), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("WithWorkers(4) diverged from WithWorkers(1)")
	}
}

// TestPreparedStreaming: the prepared cursor streams the same rows as
// the prepared buffered execution.
func TestPreparedStreaming(t *testing.T) {
	sys := testSystem(t)
	p, err := sys.Prepare(`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, COUNT(f) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.QueryContext(context.Background(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("streamed prepared rows diverged from buffered")
	}
}

// TestConcurrentPreparedAcrossEpochBump is the -race coverage for the
// prepared-query path: many goroutines hammer ExecContext on shared
// statements while AdoptSelection lands views and bumps the epoch
// mid-flight. Every execution must succeed and agree with the reference
// result (views never change results, only plans).
func TestConcurrentPreparedAcrossEpochBump(t *testing.T) {
	sys := testSystem(t)
	sys.Parallelism = 2

	queries := []string{
		blastRadius,
		`MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipelineName AS p, COUNT(f) AS n`,
		`MATCH ()-[r]->() RETURN COUNT(*) AS n`,
	}
	stmts := make([]*PreparedQuery, len(queries))
	wants := make([]*exec.Result, len(queries))
	for i, q := range queries {
		p, err := sys.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = p
		want, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	sel, err := sys.SelectViews([]string{blastRadius}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4*len(queries)+1)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for round := 0; round < 4; round++ {
				for qi, p := range stmts {
					res, err := p.ExecContext(context.Background())
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Rows, wants[qi].Rows) {
						t.Errorf("goroutine %d: prepared result diverged across epoch bump", i)
						return
					}
				}
			}
		}(i)
	}
	// The epoch bump races the executions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := sys.AdoptSelection(sel); err != nil {
			errs <- err
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles, the statements must be on the new plan.
	plan, err := stmts[0].Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.ViewName == "" {
		t.Error("prepared plan not re-rewritten after concurrent adoption")
	}
}
