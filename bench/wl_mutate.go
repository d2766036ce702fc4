package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"kaskade"
	"kaskade/internal/gql"
	"kaskade/internal/workload"
)

// One mutate_maintain op is a batch: filesPerBatch new File vertices,
// each written by one Zipf-chosen Job and read by readersPerFile later
// Jobs (10 maintainer calls), then three reads.
const (
	filesPerBatch  = 2
	readersPerFile = 3
)

// The batch's reads: a typed count over the base (reads the overlay
// tail), the 2-hop path count over the base, and the edge count over the
// maintained view. The last two must agree or the view is stale.
var mutateReads = []string{
	`MATCH (f:File) RETURN COUNT(*) AS n`,
	`MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(c:Job) RETURN COUNT(*) AS n`,
	`MATCH (a:Job)-[e]->(b:Job) RETURN COUNT(*) AS n`,
}

// mutateDriver runs writes beside reads on one goroutine, the
// maintainer's documented no-concurrent-mutation contract.
type mutateDriver struct {
	m       *kaskade.MaintainedConnector
	systems [3]*kaskade.System // the System each read runs on
	stmts   [3]*kaskade.PreparedQuery
	jobs    []kaskade.VertexID
	writers []int // Zipf-drawn writer ranks
	readers []int // uniform draws, reduced to a later job per use
	files   int64 // File vertices in the base
	paths   int64 // 2-hop Job→Job paths in the base
	skew    int64 // added to every expectation by the self-test

	pipes   [3]pipeline
	plans   [3]*workload.Plan
	tailMax int
}

func setupMutate(ctx context.Context, cfg config) (*env, error) {
	raw, err := genRaw(cfg.scale)
	if err != nil {
		return nil, err
	}
	base, err := summarizeProv(raw)
	if err != nil {
		return nil, err
	}
	baseEdges := base.NumEdges()
	start := time.Now()
	m, err := kaskade.NewMaintainedConnector(connectorDef, base)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)

	rng := clientRNG(cfg.seed, 0)
	d := &mutateDriver{m: m, jobs: append([]kaskade.VertexID(nil), base.VerticesOfType("Job")...)}
	d.writers = zipfSchedule(rng, len(d.jobs)-1) // the last job has no later reader
	d.readers = make([]int, scheduleLen)
	for i := range d.readers {
		d.readers[i] = rng.Int()
	}
	bsys, vsys := kaskade.New(base), kaskade.New(m.View())
	d.systems = [3]*kaskade.System{bsys, bsys, vsys}
	stats := &pipeStats{}
	for i, text := range mutateReads {
		if d.stmts[i], err = d.systems[i].Prepare(text, kaskade.WithoutViews()); err != nil {
			return nil, err
		}
		d.pipes[i] = pipeline{sys: d.systems[i], noViews: true, pipeStats: stats}
	}
	d.files = int64(len(base.VerticesOfType("File")))
	if d.paths, err = d.count(ctx, 1); err != nil {
		return nil, err
	}
	if cfg.corrupt {
		d.skew = 1
	}
	return &env{
		drv: d, raw: raw,
		viewsBuild: build, adoptDur: build,
		rebuild: func() (time.Duration, error) {
			// The runner calls this before any op has mutated base.
			start := time.Now()
			_, err := kaskade.NewMaintainedConnector(connectorDef, base)
			return time.Since(start), err
		},
		viewEdges: m.View().NumEdges(), baseEdges: baseEdges,
	}, nil
}

func (d *mutateDriver) clients() int { return 1 }
func (d *mutateDriver) close()       {}

func (d *mutateDriver) describe(_, i int) string {
	return fmt.Sprintf("batch writers=%v", d.batchWriters(i))
}

func (d *mutateDriver) batchWriters(i int) []int {
	out := make([]int, filesPerBatch)
	for k := range out {
		out[k] = d.writers[(i*filesPerBatch+k)%len(d.writers)]
	}
	return out
}

// mutate applies batch i through the maintainer. Readers are later jobs
// than the writer, which keeps the lineage graph a DAG.
func (d *mutateDriver) mutate(i int) error {
	for k, w := range d.batchWriters(i) {
		d.files++
		f, err := d.m.AddVertex("File", kaskade.Properties{
			"name": "bench_file" + strconv.FormatInt(d.files, 10),
			"size": d.files,
		})
		if err != nil {
			return err
		}
		ts := kaskade.Properties{"ts": d.files}
		if _, err := d.m.AddEdge(d.jobs[w], f, "WRITES_TO", ts); err != nil {
			return err
		}
		for r := 0; r < readersPerFile; r++ {
			draw := d.readers[((i*filesPerBatch+k)*readersPerFile+r)%len(d.readers)]
			reader := w + 1 + draw%(len(d.jobs)-w-1)
			if _, err := d.m.AddEdge(f, d.jobs[reader], "IS_READ_BY", ts); err != nil {
				return err
			}
			d.paths++
		}
	}
	return nil
}

func countOf(res *kaskade.Result) (int64, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("count returned %d rows", len(res.Rows))
	}
	n, ok := res.Rows[0][0].(int64)
	if !ok {
		return 0, fmt.Errorf("count returned %T", res.Rows[0][0])
	}
	return n, nil
}

func (d *mutateDriver) count(ctx context.Context, read int) (int64, error) {
	res, err := d.stmts[read].ExecContext(ctx)
	if err != nil {
		return 0, err
	}
	return countOf(res)
}

func (d *mutateDriver) verify(counts [3]int64) error {
	want := [3]int64{d.files + d.skew, d.paths + d.skew, d.paths + d.skew}
	if counts != want {
		return fmt.Errorf("files, base paths, view edges are %v, want %v", counts, want)
	}
	return nil
}

func (d *mutateDriver) op(ctx context.Context, _, i int) error {
	if err := d.mutate(i); err != nil {
		return err
	}
	var counts [3]int64
	for r := range counts {
		n, err := d.count(ctx, r)
		if err != nil {
			return err
		}
		counts[r] = n
	}
	return d.verify(counts)
}

func (d *mutateDriver) tracedOp(ctx context.Context, tr *tracer, _, i int) error {
	op := int64(i)
	root := tr.begin(op, -1, rootSpan)
	defer tr.end(root)
	s := tr.begin(op, root, "views.maintain")
	err := d.mutate(i)
	tr.end(s)
	if err != nil {
		return err
	}
	if fz := d.m.Base().CachedFrozen(); fz != nil {
		if _, te := fz.TailSize(); te > d.tailMax {
			d.tailMax = te
		}
	}
	var counts [3]int64
	for r := range counts {
		if d.plans[r] == nil {
			var q gql.Query
			if q, err = d.pipes[r].parse(tr, op, root, mutateReads[r]); err != nil {
				return err
			}
			if d.plans[r], err = d.pipes[r].plan(tr, op, root, q); err != nil {
				return err
			}
		}
		res, err := d.pipes[r].execute(ctx, tr, op, root, d.plans[r], mutateReads[r])
		if err != nil {
			return err
		}
		if counts[r], err = countOf(res); err != nil {
			return err
		}
	}
	return d.verify(counts)
}

func (d *mutateDriver) layerMetrics(_ context.Context, _ tracedRun, out map[string]float64) error {
	d.pipes[0].layerMetrics(out)
	out["graph.tail_edges_max"] = float64(d.tailMax)
	return nil
}
