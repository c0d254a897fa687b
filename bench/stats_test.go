package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python extrapolates.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {30, 50}, {99, 50}, {240, 90}, {1000, 99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 216 {
		t.Errorf("p90 of 1..240 = %v, want 216", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "rep", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "read", Start: ms(0), End: ms(10)},
		// Nested: correct has a child of its own.
		{ID: 3, Parent: 1, Name: "correct", Start: ms(10), End: ms(80)},
		{ID: 4, Parent: 3, Name: "solve", Start: ms(20), End: ms(50)},
		// Overlapping children of correct, one running past its end.
		{ID: 5, Parent: 3, Name: "solve", Start: ms(40), End: ms(70)},
		{ID: 6, Parent: 3, Name: "solve", Start: ms(75), End: ms(90)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(20), 2: ms(10), 3: ms(15), 4: ms(30), 5: ms(30), 6: ms(15)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := unattributedShare(spans); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
	rows := ledger(spans)
	if rows[0].Name != "rep" || rows[3].Name != "solve" || rows[3].Calls != 3 || math.Abs(rows[3].SelfS-0.075) > 1e-12 {
		t.Errorf("ledger = %+v", rows)
	}
	var tr *tracer
	tr.start("off", nil, 0, 0).end() // spans off: nothing to record, nothing to crash
	if got := tr.all(); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := jobSequence(7, 64), jobSequence(7, 64), jobSequence(8, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different job sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same job sequence")
	}
	for r := 0; r < len(a); r += len(jobTypes) {
		seen := map[int]bool{}
		for _, k := range a[r : r+len(jobTypes)] {
			seen[k] = true
		}
		if len(seen) != len(jobTypes) {
			t.Fatalf("round at %d does not hold every job type once: %v", r, a[r:r+len(jobTypes)])
		}
	}
	if (env{seed: 7}).offset() != (env{seed: 7}).offset() {
		t.Error("equal seeds gave different offsets")
	}
	if (env{seed: 7}).offset() == (env{seed: 8}).offset() {
		t.Error("different seeds gave the same offset")
	}
	if o := (env{seed: 7}).offset(); o.X < 0 || o.Y < 0 || o.X%2 != 0 || o.Y%2 != 0 {
		t.Errorf("offset %v is not on the 2 nm grid of the positive quadrant", o)
	}
}

func TestJudge(t *testing.T) {
	near := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	wide := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"slower by a fifth", near(1), near(1.2), true, worse},
		{"faster by a fifth", near(1), near(0.8), true, better},
		{"within the bound", near(1), near(1.05), true, same},
		{"throughput down", near(10), near(8), false, worse},
		{"throughput up", near(10), near(12), false, better},
		{"spread wider than the bound", near(1), wide, true, unresolved},
	} {
		if _, _, got := judge(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	bench, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	set := func(wall, iters float64, failed int) []runRecord {
		var recs []runRecord
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.002*float64(i)
			recs = append(recs, runRecord{Workload: "routed_cold", Result: result{Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
				"wall_s":    {Value: wall * jitter, Unit: "s"},
				"ops_per_s": {Value: 1 / (wall * jitter), Unit: "1/s"},
			}}})
		}
		return append(recs, runRecord{Workload: "routed_cold", Trace: 1, Result: result{Attempted: 10, Metrics: map[string]metricValue{
			"model.iterations": {Value: iters, Unit: "count"},
		}}})
	}
	rows, counts, failures := compareSets(set(2, 190, 0), set(2.5, 188, 1), bench)
	verdicts := map[string]string{}
	for _, r := range rows {
		verdicts[r.workload+"/"+r.metric] = r.verdict
	}
	want := map[string]string{"routed_cold/wall_s": worse, "routed_cold/ops_per_s": worse}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("verdicts = %v, want %v", verdicts, want)
	}
	if len(counts) != 1 || len(failures) != 1 {
		t.Errorf("count differences %v, failures %v: want one of each", counts, failures)
	}
	rows, counts, failures = compareSets(set(2, 190, 0), set(2.02, 190, 0), bench)
	for _, r := range rows {
		if r.verdict != same {
			t.Errorf("%s/%s: verdict %s, want same", r.workload, r.metric, r.verdict)
		}
	}
	if len(counts) != 0 || len(failures) != 0 {
		t.Errorf("count differences %v, failures %v: want none", counts, failures)
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the tables the program
// reports from.
func TestBenchmarkFile(t *testing.T) {
	bench, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bench.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bench.RunSeconds, defaultSeconds)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, the program has %q: %q", i, bench.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, the program reports %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d = %s [%s], the program reports %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", d.name, got[i].Better)
			}
		}
	}
	check("end-to-end", bench.EndToEnd, endToEnd)
	check("per-layer", bench.PerLayer, perLayer)
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := map[string]bool{}
	for _, d := range perLayer {
		layer[d.name] = true
	}
	for _, name := range exactCounts {
		if !layer[name] {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}
