// Command bench is the repository's benchmark: five seeded workloads
// over the prov lineage graph, every answer verified, seven gated
// end-to-end metrics per workload, and a traced pass that attributes
// time to the repository's packages. See README.md.
//
//	bench -workload lineage_view -seed 1 -seconds 12 -trace 0   one run, one JSON line (what BENCHMARK.json's command does)
//	bench [-trace 1] [-ops 1] [-out dir]                        the whole suite, as a table and a result file
//	bench -compare old.json new.json                            two result files, row by row
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		trace   = fs.Int("trace", 0, "1 = traced pass reporting per-layer metrics; 0 = end-to-end metrics")
		compare = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		commit  = fs.String("commit", "unknown", "commit recorded in the suite's result file")
	)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload and print one JSON line (default: the whole suite)")
	fs.Int64Var(&cfg.seed, "seed", 1, "op-sequence seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "length of the timed phase")
	fs.Float64Var(&cfg.opsScale, "ops", 0, "fix the timed phase at this multiple of each workload's nominal op count instead of -seconds")
	fs.Float64Var(&cfg.scale, "scale", 1, "dataset scale")
	fs.StringVar(&cfg.outDir, "out", "", "directory for the suite's result file and a traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive, and there are no positional arguments")
		return 2
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if cfg.workload != "" {
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return printLine(stdout, stderr, res)
	}
	return runSuite(ctx, cfg, *commit, stdout, stderr)
}

// printLine writes the one-line result the benchmark contract asks for
// and returns the exit code: non-zero when any op failed verification.
func printLine(stdout, stderr io.Writer, res *result) int {
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "bench: failed op:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload untraced, then (with -trace 1) traced,
// prints the table and writes the result file.
func runSuite(ctx context.Context, cfg config, commit string, stdout, stderr io.Writer) int {
	host, _ := os.Hostname()
	rep := &report{
		Commit: commit, Host: host, NProc: runtime.NumCPU(), Go: runtime.Version(),
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Ops: cfg.opsScale,
		Untraced: map[string]*result{}, Traced: map[string]*result{},
	}
	failed := false
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for _, wl := range workloadSpecs {
			c := cfg
			c.workload, c.trace = wl.Name, traced
			fmt.Fprintf(stderr, "bench: running %s (trace=%v)\n", wl.Name, traced)
			res, err := runWorkload(ctx, c)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			for _, e := range res.Errors {
				fmt.Fprintln(stderr, "bench: failed op:", e)
			}
			failed = failed || res.Failed > 0
			if traced {
				rep.Traced[wl.Name] = res
			} else {
				rep.Untraced[wl.Name] = res
			}
		}
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.print(stdout)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, "bench.json")
		if err := rep.write(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	if failed {
		fmt.Fprintln(stderr, "bench: some ops failed verification")
		return 1
	}
	return 0
}
