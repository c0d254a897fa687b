package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	return b, loadJSON(path, &b)
}

func loadRecords(path string) ([]runRecord, error) {
	var recs []runRecord
	return recs, loadJSON(path, &recs)
}

// Verdicts of one (workload, metric) row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// row is one (workload, end-to-end metric) comparison.
type row struct {
	workload, metric, unit string
	a, b                   float64 // medians
	delta                  float64 // share of a by which b is worse (negative: better)
	spread, bound          float64
	verdict                string
}

// judge compares the values two run sets measured for one metric. The
// bound is the benchmark's resolution in both directions: a median that
// moved by less is the same, and when either set's own quartiles lie
// further apart than the bound, the row cannot be called either way.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (delta, spr float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
		if !lowerIsBetter {
			delta = -delta
		}
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	switch {
	case spr > bound:
		verdict = unresolved
	case delta > bound:
		verdict = worse
	case delta < -bound:
		verdict = better
	default:
		verdict = same
	}
	return delta, spr, verdict
}

// values collects one metric of one workload over a set's runs.
func values(recs []runRecord, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

func failedShare(recs []runRecord, workload string) float64 {
	var failed, attempted int
	for _, r := range recs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareSets builds the verdict table of set b against set a, the
// exact counts that differ, and the workloads whose failed share rose.
func compareSets(a, b []runRecord, bench benchmarkFile) (rows []row, countDiffs, failures []string) {
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl.Name, 0, m.Name), values(b, wl.Name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: wl.Name, metric: m.Name, unit: m.Unit, a: median(va), b: median(vb), bound: m.Bound}
			r.delta, r.spread, r.verdict = judge(va, vb, m.Better != "higher", m.Bound)
			rows = append(rows, r)
		}
		for _, name := range exactCounts {
			va, vb := values(a, wl.Name, 1, name), values(b, wl.Name, 1, name)
			if len(va) > 0 && len(vb) > 0 && median(va) != median(vb) {
				countDiffs = append(countDiffs, fmt.Sprintf("%s %s: %g -> %g", wl.Name, name, median(va), median(vb)))
			}
		}
		if fa, fb := failedShare(a, wl.Name), failedShare(b, wl.Name); fb > fa {
			failures = append(failures, fmt.Sprintf("%s failed_share: %g -> %g", wl.Name, fa, fb))
		}
	}
	return rows, countDiffs, failures
}

// compareFiles prints the comparison of two results files and returns
// an error when b is worse than a anywhere or fails more.
func compareFiles(pathA, pathB, benchPath string, w io.Writer) error {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	rows, countDiffs, failures := compareSets(a, b, bench)
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %-5s %8s %8s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "unit", "worse by", "spread", "bound", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-14s %14.6g %14.6g %-5s %+7.1f%% %7.1f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.unit, 100*r.delta, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == worse {
			bad++
		}
	}
	fmt.Fprintf(w, "exact counts that differ: %d\n", len(countDiffs))
	for _, d := range countDiffs {
		fmt.Fprintln(w, "  "+d)
	}
	for _, f := range failures {
		fmt.Fprintln(w, "more failures: "+f)
	}
	if bad > 0 || len(failures) > 0 {
		return fmt.Errorf("%d rows worse, %d workloads with a higher failed share", bad, len(failures))
	}
	return nil
}
