package main

import (
	"fmt"
	"io"
)

// verdict classifies one workload × end-to-end metric pair of two result
// files. worse is the relative change in the metric's bad direction and
// noise the spread it is judged against.
//
// When both sides carry the timed phase's slices, slice k of one run is
// compared with slice k of the other and the verdict rests on the
// median and spread of those ratios: with a fixed op sequence (-ops) the
// two slices did the same ops, so what a workload's own drift adds to a
// run's spread (mutate_maintain's graph grows 2.6x over a run) cancels,
// and what remains is noise. Otherwise each side's own spread is used.
func verdict(spec metricSpec, old, cur metricValue) (worse, noise float64, label string) {
	if old.Value == 0 {
		return 0, 0, "unresolved"
	}
	ratio, noise := cur.Value/old.Value, max(old.Spread, cur.Spread)
	if n := len(old.Slices); n > 1 && n == len(cur.Slices) {
		ratios := make([]float64, n)
		for k := range ratios {
			ratios[k] = cur.Slices[k] / old.Slices[k]
		}
		ratio, noise = median(ratios), spread(ratios)
	}
	worse = ratio - 1
	if spec.Better == "higher" {
		worse = 1/ratio - 1
	}
	switch {
	case noise > spec.Bound:
		// The slices disagree by more than the bound: the pair cannot
		// show a change that small either way.
		return worse, noise, "unresolved"
	case worse > spec.Bound:
		return worse, noise, "regressed"
	case worse < -spec.Bound:
		return worse, noise, "improved"
	}
	return worse, noise, "unchanged"
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old %s (%s)  new %s (%s)\n", oldPath, old.Commit, newPath, cur.Commit)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old (base)", "new", "new/old", "worse", "noise", "verdict (bound)")
	for _, wl := range workloadSpecs {
		o, n := old.Untraced[wl.Name], cur.Untraced[wl.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-16s missing from one file\n", wl.Name)
			continue
		}
		for _, spec := range endToEndSpecs {
			ov, nv := o.Metrics[spec.Name], n.Metrics[spec.Name]
			worse, noise, label := verdict(spec, ov, nv)
			ratio := 0.0
			if ov.Value != 0 {
				ratio = nv.Value / ov.Value
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %9.4f %+7.1f%% %6.1f%%  %s (%g%%)\n",
				wl.Name, spec.Name, ov.Value, nv.Value, ratio, 100*worse, 100*noise, label, 100*spec.Bound)
			regressed = regressed || label == "regressed"
		}
	}
	return regressed, nil
}
