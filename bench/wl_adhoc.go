package main

import (
	"context"

	"kaskade"
)

// adhocTexts is how many distinct query texts adhoc_planning draws from.
const adhocTexts = 512

// adhocDriver calls System.QueryContext ad hoc on the unsummarized
// graph: every op parses, enumerates, costs and rewrites before a short
// selective match, so planning is most of each op.
type adhocDriver struct {
	sys      *kaskade.System
	texts    []string
	want     []answer
	schedule []int
	h        *hasher
	pipe     pipeline
}

func setupAdhoc(_ context.Context, cfg config) (*env, error) {
	raw, err := genRaw(cfg.scale)
	if err != nil {
		return nil, err
	}
	sys := kaskade.New(raw)
	texts := selectiveTexts(adhocTexts)
	// Views are selected for the workload's shapes: Listing 1 and one
	// representative of each ad hoc template.
	selectDur, adoptDur, err := buildViews(sys, append([]string{stmtBlast}, texts[:4]...))
	if err != nil {
		return nil, err
	}
	d := &adhocDriver{
		sys:      sys,
		texts:    texts,
		schedule: zipfSchedule(clientRNG(cfg.seed, 0), len(texts)),
		h:        newHasher(),
		pipe:     newPipeline(sys, false),
	}
	for _, text := range texts {
		res, err := sys.QueryRaw(text)
		if err != nil {
			return nil, err
		}
		want := d.h.result(res)
		if cfg.corrupt {
			want.sum++
		}
		d.want = append(d.want, want)
	}
	return &env{
		drv: d, raw: raw,
		viewsBuild: selectDur + adoptDur, selectDur: selectDur, adoptDur: adoptDur,
		viewEdges: sys.Catalog().TotalEdges(), baseEdges: raw.NumEdges(),
	}, nil
}

func (d *adhocDriver) clients() int { return 1 }
func (d *adhocDriver) close()       {}

func (d *adhocDriver) text(i int) int { return d.schedule[i%len(d.schedule)] }

func (d *adhocDriver) describe(_, i int) string { return d.texts[d.text(i)] }

func (d *adhocDriver) op(ctx context.Context, _, i int) error {
	t := d.text(i)
	res, err := d.sys.QueryContext(ctx, d.texts[t])
	if err != nil {
		return err
	}
	return check(d.h.result(res), d.want[t])
}

func (d *adhocDriver) tracedOp(ctx context.Context, tr *tracer, _, i int) error {
	t, op := d.text(i), int64(i)
	root := tr.begin(op, -1, rootSpan)
	defer tr.end(root)
	q, err := d.pipe.parse(tr, op, root, d.texts[t])
	if err != nil {
		return err
	}
	plan, err := d.pipe.plan(tr, op, root, q)
	if err != nil {
		return err
	}
	res, err := d.pipe.execute(ctx, tr, op, root, plan, d.texts[t])
	if err != nil {
		return err
	}
	s := tr.begin(op, root, "bench.verify")
	got := d.h.result(res)
	tr.end(s)
	return check(got, d.want[t])
}

func (d *adhocDriver) layerMetrics(_ context.Context, _ tracedRun, out map[string]float64) error {
	d.pipe.layerMetrics(out)
	return nil
}
