package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// report is the suite's result file: where and how it ran, the untraced
// set (every end-to-end metric per workload) and the traced set (every
// per-layer metric per workload).
type report struct {
	Commit     string             `json:"commit"`
	Host       string             `json:"host"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Seed       int64              `json:"seed"`
	Scale      float64            `json:"scale"`
	Seconds    float64            `json:"seconds"`
	Ops        float64            `json:"ops"`
	Untraced   map[string]*result `json:"untraced"`
	Traced     map[string]*result `json:"traced"`
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print renders every metric by name with its unit, workload by
// workload in declaration order.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  host %s  nproc %d  GOMAXPROCS %d  %s  seed %d  scale %g\n",
		r.Commit, r.Host, r.NProc, r.GOMAXPROCS, r.Go, r.Seed, r.Scale)
	for _, wl := range workloadSpecs {
		res := r.Untraced[wl.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d timed ops, %d attempted, %d failed, fail_ratio %g)\n",
			wl.Name, res.Samples, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for _, spec := range endToEndSpecs {
			m := res.Metrics[spec.Name]
			fmt.Fprintf(w, "  %-28s %14.4f %-6s spread %5.1f%%  (bound %g%%)\n",
				spec.Name, m.Value, m.Unit, 100*m.Spread, 100*spec.Bound)
		}
	}
	for _, wl := range workloadSpecs {
		res := r.Traced[wl.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  traced pass, per layer\n", wl.Name)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.Metrics[name]
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}
