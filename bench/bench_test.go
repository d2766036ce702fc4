package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// tinyConfig runs a workload on a 100-job graph for a handful of ops.
func tinyConfig(workload string) config {
	return config{workload: workload, seed: 1, seconds: 1, opsScale: 0.01, scale: 0.05}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(specs))
	}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, spec.Name)
			continue
		}
		if !metricName.MatchString(spec.Name) {
			t.Errorf("metric name %q is not spelled with [A-Za-z0-9_.-]", spec.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", res.Workload, spec.Name, m.Value)
		}
		if m.Unit != spec.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, spec.Name, m.Unit, spec.Unit)
		}
	}
}

// TestTinyRun runs all five workloads, untraced and traced, and checks
// that every declared metric comes out finite and that no op fails.
func TestTinyRun(t *testing.T) {
	for _, wl := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(wl.Name)
			cfg.trace = traced
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", wl.Name, traced, res.Failed, res.Attempted, res.Errors)
			}
			if traced {
				checkMetrics(t, res, perLayerSpecs)
				continue
			}
			checkMetrics(t, res, endToEndSpecs)
			for _, name := range []string{mSetup, mThroughput, mP50, mP95, mHeap, mOKRatio} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s is %v, want > 0", wl.Name, name, res.Metrics[name].Value)
				}
			}
			var out bytes.Buffer
			if code := printLine(&out, io.Discard, res); code != 0 {
				t.Errorf("%s: exit code %d for a clean run", wl.Name, code)
			}
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int64                     `json:"attempted"`
				Failed    *int64                     `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", wl.Name, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEndSpecs) {
				t.Errorf("%s: result line %s lacks a key of the contract", wl.Name, out.String())
			}
		}
	}
}

// TestFailedVerificationReachesExitCode is the self-test: with wrong
// expected answers every workload must count failed ops and exit
// non-zero.
func TestFailedVerificationReachesExitCode(t *testing.T) {
	for _, wl := range workloadSpecs {
		cfg := tinyConfig(wl.Name)
		cfg.corrupt = true
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: no op failed against corrupted expectations", wl.Name)
		}
		if res.Metrics[mOKRatio].Value >= 1 {
			t.Errorf("%s: ok_ratio is %v with failed ops", wl.Name, res.Metrics[mOKRatio].Value)
		}
		var out bytes.Buffer
		if code := printLine(&out, io.Discard, res); code == 0 {
			t.Errorf("%s: exit code 0 with %d failed ops", wl.Name, res.Failed)
		}
		if !bytes.Contains(out.Bytes(), []byte(`"correct":false`)) {
			t.Errorf("%s: result line %s does not say correct:false", wl.Name, out.String())
		}
	}
}

// TestSeedDrivesOpSequence checks that equal seeds give identical op
// sequences and different seeds different ones, on every workload.
func TestSeedDrivesOpSequence(t *testing.T) {
	sequence := func(workload string, seed int64) []string {
		cfg := tinyConfig(workload)
		cfg.seed = seed
		e, err := setups[workload](context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		defer e.drv.close()
		var seq []string
		for c := 0; c < e.drv.clients(); c++ {
			for i := 0; i < 300; i++ {
				seq = append(seq, e.drv.describe(c, i))
			}
		}
		return seq
	}
	for _, wl := range workloadSpecs {
		a, b, other := sequence(wl.Name, 7), sequence(wl.Name, 7), sequence(wl.Name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op sequences", wl.Name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", wl.Name)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and the repository's
// BENCHMARK.json declaring the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []metricSpec   `json:"end_to_end"`
		PerLayer  []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", decl.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", decl.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", decl.PerLayer, perLayerSpecs)
	}
	hasSetup := false
	for _, m := range endToEndSpecs {
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 100}, {90, 90}, {1, 10}, {100, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 4, 37, 7, 11, 22, 16})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	if got := spread([]float64{46, 1, 29, 2, 4, 37, 7, 11, 22, 16}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

// TestSummarizeReportsSliceMedians builds five slices whose p50 are 1..5
// ms and checks the median over slices, not over ops, comes out.
func TestSummarizeReportsSliceMedians(t *testing.T) {
	var samples []sample
	end := int64(0)
	for s := 1; s <= numSlices; s++ {
		for i := 0; i < 100; i++ {
			lat := int64(s) * 1e6
			end += lat
			samples = append(samples, sample{lat: lat, end: end})
		}
	}
	tm := summarize(samples)
	if tm.samples != 500 || tm.p50.value != 3 || tm.p95.value != 3 {
		t.Errorf("summarize = %+v, want p50 = p95 = 3 ms over 500 samples", tm)
	}
	if want := 1000.0 / 3; math.Abs(tm.throughput.value-want) > 1e-9 {
		t.Errorf("throughput = %v ops/s, want %v", tm.throughput.value, want)
	}
	if tm.p50.spread <= 0 {
		t.Errorf("slices differ but spread is %v", tm.p50.spread)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: rootSpan, Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "gql.parse", Op: 1, Parent: 0, Start: 5, End: 25},
		{Name: "exec.execute", Op: 1, Parent: 0, Start: 25, End: 95},
		{Name: "graph.scan", Op: 1, Parent: 2, Start: 30, End: 60},
	}
	stats := selfTimes(spans)
	for name, want := range map[string]int64{rootSpan: 10, "gql.parse": 20, "exec.execute": 40, "graph.scan": 30} {
		if got := stats[name].selfNS; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	shares := layerShares(stats)
	if shares["exec"] != 0.4 || shares["gql"] != 0.2 || shares[rootSpan] != 0.1 {
		t.Errorf("layer shares = %v", shares)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: mP50, Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: mThroughput, Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		spec     metricSpec
		old, new metricValue
		want     string
	}{
		{lower, metricValue{Value: 10}, metricValue{Value: 10.5}, "unchanged"},
		{lower, metricValue{Value: 10}, metricValue{Value: 11.5}, "regressed"},
		{lower, metricValue{Value: 10}, metricValue{Value: 8}, "improved"},
		{higher, metricValue{Value: 100}, metricValue{Value: 85}, "regressed"},
		{higher, metricValue{Value: 100}, metricValue{Value: 120}, "improved"},
		{lower, metricValue{Value: 10, Spread: 0.3}, metricValue{Value: 20}, "unresolved"},
		// A workload that slows 3x over its run: each side's own spread is
		// huge, the paired slices agree to within 2 %.
		{lower, metricValue{Value: 20, Spread: 1, Slices: []float64{10, 20, 30}},
			metricValue{Value: 20.2, Spread: 1, Slices: []float64{10.2, 20.2, 30}}, "unchanged"},
		{lower, metricValue{Value: 20, Spread: 1, Slices: []float64{10, 20, 30}},
			metricValue{Value: 26, Spread: 1, Slices: []float64{13, 26, 39}}, "regressed"},
	} {
		if _, _, got := verdict(tc.spec, tc.old, tc.new); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.spec.Name, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}
}

func TestRowCountReadsTheTrailer(t *testing.T) {
	n, err := rowCount([]byte(`{"columns":["n"],"rows":[[1],[2]],"row_count":2}` + "\n"))
	if err != nil || n != 2 {
		t.Errorf("rowCount = %d, %v", n, err)
	}
	if _, err := rowCount([]byte(`{"columns":["n"],"rows":[[1]],"error":"boom","kind":"internal"}`)); err == nil {
		t.Error("rowCount accepted a body that ended in an error")
	}
}
