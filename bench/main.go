// Command bench is the goopc benchmark: four workloads run through the
// public functions of layout/gds, core, mask, patlib and server, with
// end-to-end metrics taken where a user stands and a per-layer ledger
// measured from outside the program. See README.md.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	bash bench/run.sh -seed N [-runs K] [-out results.json]            every workload, plain then traced
//	bash bench/run.sh -compare a.json b.json                           hold two run sets to the bounds
//	bash bench/run.sh -selftest                                        prove an injected slowdown is caught
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json's run_seconds repeats it.
const defaultSeconds = 20

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	runs      int
	out       string
	benchJSON string
	compare   bool
	selftest  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result line (default: every workload)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the run's inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: plain runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "bench/out/results.json", "without -workload: where the run records go; trace.json is written beside it")
	flag.StringVar(&o.benchJSON, "benchmark", "BENCHMARK.json", "the benchmark's description, for the bounds -compare and -selftest judge by")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.BoolVar(&o.selftest, "selftest", false, "check that an injected 20% tile delay is caught and attributed")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		return compareFiles(args[0], args[1], o.benchJSON, os.Stdout)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}

	// One process, P = min(nproc, 4) processors, at most P clients: the
	// sizes in this package are set for a small shared host.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, procs: procs, tmp: tmp}

	switch {
	case o.selftest:
		return selfTest(e, o.seconds, o.benchJSON)
	case o.workload != "":
		wl, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return runOne(wl, e, o.seconds, o.trace != 0, filepath.Dir(o.out))
	}
	return runAll(e, o.seconds, o.runs, o.out)
}

// runOne is what the driver calls: one run of one workload, every
// metric printed by name, the result object as the last line.
func runOne(wl workload, e env, seconds float64, traced bool, outDir string) error {
	rec, spans, err := runWorkload(wl, e, seconds, traced)
	if err != nil {
		return err
	}
	if traced {
		if err := writeTrace(outDir, []workloadSpans{{wl.name, spans}}); err != nil {
			return err
		}
	}
	printMetrics(rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", wl.name, rec.Result.Failed, rec.Result.Attempted)
	}
	return nil
}

// runAll runs every workload: plain runs for the end-to-end metrics,
// then one traced run for the per-layer ledger.
func runAll(e env, seconds float64, runs int, out string) error {
	var (
		records []runRecord
		traces  []workloadSpans
		failed  int
	)
	for _, wl := range workloads {
		fmt.Printf("# %s: %s\n", wl.name, wl.why)
		for k := 0; k <= runs; k++ {
			traced := k == runs
			re := e
			if !traced {
				re.seed = e.seed + int64(k)
			}
			rec, spans, err := runWorkload(wl, re, seconds, traced)
			if err != nil {
				return err
			}
			if traced {
				traces = append(traces, workloadSpans{wl.name, spans})
			}
			printMetrics(rec)
			failed += rec.Result.Failed
			records = append(records, rec)
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := writeTrace(filepath.Dir(out), traces); err != nil {
		return err
	}
	fmt.Printf("# wrote %s and %s\n", out, filepath.Join(filepath.Dir(out), "trace.json"))
	if failed > 0 {
		return fmt.Errorf("%d operations failed their output check", failed)
	}
	return nil
}

func writeTrace(dir string, traces []workloadSpans) error {
	data, err := chromeTrace(traces)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
