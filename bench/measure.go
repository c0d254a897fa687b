package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"goopc/internal/obs"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as results.json keeps it.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Seconds  float64     `json:"seconds"`
	Procs    int         `json:"gomaxprocs"`
	Result   result      `json:"result"`
	Errors   []string    `json:"errors,omitempty"`
	Ledger   []ledgerRow `json:"ledger,omitempty"`
}

const (
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups = 3
	// minOps is the fewest operations a run measures however short
	// -seconds is.
	minOps = 4
)

// usage is a reading of the process-wide meters a window is charged by.
type usage struct {
	at    time.Time
	cpu   float64
	alloc float64
	mem   runtime.MemStats
	obs   obs.Snapshot
	// own holds the workload's own counters (instance.counters).
	own map[string]float64
}

// readUsage reads the meters; the ones only a traced run reports stop
// the world or take locks, so a plain run leaves them out.
func readUsage(inst instance, traced bool) usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		u.cpu = tv(ru.Utime) + tv(ru.Stime)
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	u.alloc = float64(s[0].Value.Uint64())
	if traced {
		runtime.ReadMemStats(&u.mem)
		u.obs = obs.Default().Snapshot()
		u.own = inst.counters()
	}
	return u
}

// window is the measured part of a run.
type window struct {
	ops        []opResult
	start, end usage
}

// measure runs operations from the instance's clients until the time is
// up. With a tracer, every second operation records spans and the
// others do not, so that one run gives both sides of trace.overhead_share.
func measure(inst instance, seconds float64, tr *tracer) window {
	var (
		w    window
		mu   sync.Mutex
		next atomic.Int64 // the next operation's number
		wg   sync.WaitGroup
	)
	// Start every window from a collected heap: what set-up left behind
	// otherwise decides how often the collector runs during the window.
	runtime.GC()
	w.start = readUsage(inst, tr != nil)
	t0 := time.Now()
	// The window ends at the first whole round of operations after the
	// time is up, so that every run holds the same mix of job types.
	var limit atomic.Int64
	round := int64(inst.round())
	for tid := 0; tid < inst.clients(); tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if limit.Load() == 0 && i >= minOps && time.Since(t0).Seconds() >= seconds {
					limit.CompareAndSwap(0, (i+round-1)/round*round)
				}
				if lim := limit.Load(); lim != 0 && i >= lim {
					return
				}
				opTr := tr
				if i%2 == 0 {
					opTr = nil
				}
				r := inst.op(int(i), tid+1, opTr)
				r.traced = opTr != nil
				mu.Lock()
				w.ops = append(w.ops, r)
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	w.end = readUsage(inst, tr != nil)
	return w
}

// typical is the workload's typical value of a per-operation figure such
// as the wall clock: the median, taken per kind of operation and
// averaged over the kinds. The job types
// of opcd_jobs differ fourfold in run time, so the median of the mixture
// would sit in the gap between two types and jump with the mix.
func typical(ops []opResult, value func(opResult) float64) float64 {
	byKind := map[string][]float64{}
	for _, r := range ops {
		if r.err == nil {
			byKind[r.kind] = append(byKind[r.kind], value(r))
		}
	}
	var meds []float64
	for _, v := range byKind {
		meds = append(meds, median(v))
	}
	if len(meds) == 0 {
		return 0
	}
	return sum(meds) / float64(len(meds))
}

// runWorkload sets the workload up, measures it and returns the run's
// record: the end-to-end metrics with spans off, or, traced, the
// per-layer metrics and the spans.
func runWorkload(wl workload, e env, seconds float64, traced bool) (runRecord, []span, error) {
	rec := runRecord{Workload: wl.name, Seed: e.seed, Seconds: seconds, Procs: e.procs}
	var (
		inst   instance
		setupS []float64
	)
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return rec, nil, fmt.Errorf("%s: close: %w", wl.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(e); err != nil {
			return rec, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.reference(); err != nil {
		return rec, nil, fmt.Errorf("%s: reference: %w", wl.name, err)
	}

	var tr *tracer
	if traced {
		tr = newTracer()
		rec.Trace = 1
	}
	w := measure(inst, seconds, tr)

	var good []opResult
	for _, r := range w.ops {
		if r.err != nil {
			rec.Result.Failed++
			if len(rec.Errors) < 5 {
				rec.Errors = append(rec.Errors, r.err.Error())
			}
			continue
		}
		good = append(good, r)
	}
	rec.Result.Attempted = len(w.ops)
	rec.Result.Correct = rec.Result.Failed == 0
	if len(good) == 0 {
		return rec, nil, fmt.Errorf("%s: no operation succeeded: %v", wl.name, rec.Errors)
	}

	if !traced {
		m := endToEndMetrics(w, good)
		m["setup_s"] = median(setupS)
		rec.Result.Metrics = pack(endToEnd, m)
		return rec, nil, nil
	}
	spans := tr.all()
	m := map[string]float64{}
	layerMetrics(m, w, good, spans, e)
	if wl.serialReps > 0 {
		// Single-threaded baseline: the same reps with one processor.
		prev := runtime.GOMAXPROCS(1)
		var serial []float64
		for k := 0; k < wl.serialReps; k++ {
			if r := inst.op(len(w.ops)+k, 1, nil); r.err == nil {
				serial = append(serial, r.wall)
			}
		}
		runtime.GOMAXPROCS(prev)
		m["core.wall_1p_s"] = median(serial)
		if plain := wallOf(w.ops, false); plain > 0 {
			m["core.parallel_eff"] = m["core.wall_1p_s"] / (float64(e.procs) * plain)
		}
	}
	inst.extra(m)
	if err := runProbes(inst.probe(), e.seed, m); err != nil {
		return rec, nil, fmt.Errorf("%s: probes: %w", wl.name, err)
	}
	m["fft.est_busy_s"] = m["fft.transforms"] * m["fft.fwd2d_us"] / 1e6
	m["optics.est_busy_s"] = m["optics.images"] * m["optics.aerial_ms"] / 1e3
	rec.Ledger = ledger(spans)
	rec.Result.Metrics = pack(perLayer, m)
	return rec, spans, nil
}

// endToEndMetrics are what a user of the system sees of the window;
// the caller adds setup_s.
func endToEndMetrics(w window, good []opResult) map[string]float64 {
	n := float64(len(w.ops))
	var rms []float64
	for _, r := range good {
		rms = append(rms, r.rms)
	}
	return map[string]float64{
		"wall_s":        typical(good, func(r opResult) float64 { return r.wall }),
		"ops_per_s":     n / w.end.at.Sub(w.start.at).Seconds(),
		"cpu_s":         (w.end.cpu - w.start.cpu) / n,
		"alloc_mb":      (w.end.alloc - w.start.alloc) / n / 1e6,
		"epe_rms_nm":    slices.Max(rms),
		"out_gds_bytes": typical(good, func(r opResult) float64 { return float64(r.outBytes) }),
	}
}

func pack(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// wallOf is the typical wall clock of the operations that ran with
// spans on (traced) or off.
func wallOf(ops []opResult, traced bool) float64 {
	var sel []opResult
	for _, r := range ops {
		if r.traced == traced {
			sel = append(sel, r)
		}
	}
	return typical(sel, func(r opResult) float64 { return r.wall })
}

// layerMetrics fills in the per-layer metrics that come from harness
// spans and from count deltas across the window. Counts are per
// operation; on opcd_jobs that is the average over the job types, exact
// because the window holds whole rounds.
func layerMetrics(m map[string]float64, w window, good []opResult, spans []span, e env) {
	n := float64(len(w.ops))
	c0, c1 := w.start.obs, w.end.obs
	count := func(name string) float64 { return float64(c1.Counters[name]-c0.Counters[name]) / n }
	histSum := func(name string) float64 { return (c1.Histograms[name].Sum - c0.Histograms[name].Sum) / n }

	m["gds.read_s"] = spanMedian(spans, "gds.read")
	m["gds.write_s"] = spanMedian(spans, "gds.write")
	m["layout.flatten_s"] = spanMedian(spans, "layout.flatten")
	m["core.correct_s"] = spanMedian(spans, "core.correct")
	m["mask.analyze_s"] = spanMedian(spans, "mask.analyze")
	if m["gds.read_s"] > 0 {
		m["gds.read_mb_per_s"] = float64(good[0].inBytes) / 1e6 / m["gds.read_s"]
	}

	m["fft.transforms"] = count("goopc_fft_transforms_total")
	m["fft.grid_gets"] = count("goopc_fft_grid_gets_total")
	m["fft.grid_allocs"] = count("goopc_fft_grid_allocs_total")
	m["optics.images"] = count("goopc_images_socs_total") + count("goopc_images_socs_f32_total") + count("goopc_images_abbe_total")
	m["optics.kernel_builds"] = count("goopc_kernel_builds_total")
	hits, misses := count("goopc_kernel_cache_hits_total"), count("goopc_kernel_cache_misses_total")
	if hits+misses > 0 {
		m["optics.kernel_hit_rate"] = hits / (hits + misses)
	}
	m["model.runs"] = count("goopc_model_runs_total")
	m["model.iterations"] = histSum("goopc_model_iterations")
	if m["model.runs"] > 0 {
		m["model.iters_per_run"] = m["model.iterations"] / m["model.runs"]
		m["model.early_exit_share"] = count("goopc_model_early_exit_total") / m["model.runs"]
	}
	m["core.tiles"] = count("goopc_tiles_scheduled_total")
	m["core.tile_solves"] = count("goopc_tiles_corrected_total")
	m["core.reused_tiles"] = count("goopc_tiles_reused_total")
	m["core.clean_tiles"] = count("goopc_tiles_clean_skipped_total")
	m["core.pruned_tiles"] = count("goopc_tiles_empty_pruned_total")
	if results := m["core.tile_solves"] + m["core.reused_tiles"]; results > 0 {
		m["core.dedup_share"] = m["core.reused_tiles"] / results
	}
	m["core.solve_busy_s"] = histSum("goopc_tile_correct_seconds")
	if m["core.correct_s"] > 0 {
		// Tile workers solve in parallel, so the wall clock the solves
		// account for is their busy time spread over P.
		m["core.sched_overhead_s"] = m["core.correct_s"] - m["core.solve_busy_s"]/float64(e.procs)
	}
	for k, v := range w.end.own {
		m[k] = (v - w.start.own[k]) / n
	}
	m["patlib.exact_hits"] = count("goopc_patlib_exact_hits_total")
	m["patlib.misses"] = count("goopc_patlib_misses_total")

	last := good[len(good)-1]
	m["mask.figures"] = float64(last.data.Figures)
	m["mask.vertices"] = float64(last.data.Vertices)
	m["mask.shots"] = float64(last.data.Shots)

	if good[0].aux != nil {
		// Per job type, then averaged, like wall_s: upload size and run
		// time differ between the types.
		aux := func(key string) float64 {
			return typical(good, func(r opResult) float64 { return r.aux[key] })
		}
		m["server.submit_ms_p50"] = aux("submit_ms")
		m["server.watch_lag_ms_p50"] = aux("watch_lag_ms")
		m["server.fetch_ms_p50"] = aux("fetch_ms")
		m["server.queue_s_p50"] = aux("queue_s")
		m["server.run_s_p50"] = aux("run_s")
		m["server.job_overhead_s_p50"] = aux("overhead_s")
		var walls, up, down []float64
		for _, r := range good {
			walls = append(walls, r.wall)
			up = append(up, float64(r.inBytes))
			down = append(down, float64(r.outBytes))
		}
		// A 90th percentile is reported only with ten samples beyond it.
		if highestPercentile(len(walls)) >= 90 {
			m["server.job_s_p90"] = percentile(walls, 90)
		}
		m["server.upload_bytes"] = sum(up) / float64(len(up))
		m["server.result_bytes"] = sum(down) / float64(len(down))
	}

	m["runtime.gc_cycles"] = float64(w.end.mem.NumGC-w.start.mem.NumGC) / n
	m["runtime.gc_pause_s"] = float64(w.end.mem.PauseTotalNs-w.start.mem.PauseTotalNs) / 1e9 / n
	m["runtime.heap_peak_mb"] = float64(w.end.mem.HeapSys) / 1e6

	if plain := wallOf(w.ops, false); plain > 0 {
		m["trace.overhead_share"] = wallOf(w.ops, true)/plain - 1
	}
	m["ledger.unattributed_share"] = unattributedShare(spans)
}

// printMetrics lists every metric of the run by name with its unit, in
// the order the benchmark defines them.
func printMetrics(rec runRecord) {
	defs := endToEnd
	if rec.Trace != 0 {
		defs = perLayer
	}
	fmt.Printf("## %s seed=%d trace=%d seconds=%g P=%d: %d operations, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Procs, rec.Result.Attempted, rec.Result.Failed)
	for _, e := range rec.Errors {
		fmt.Printf("   failed: %s\n", e)
	}
	for _, d := range defs {
		fmt.Printf("   %-28s %14.6g %s\n", d.name, rec.Result.Metrics[d.name].Value, d.unit)
	}
	if len(rec.Ledger) > 0 {
		fmt.Printf("   %-28s %6s %12s %12s %12s\n", "span", "calls", "total_s", "self_s", "median_s")
		rows := append([]ledgerRow(nil), rec.Ledger...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].TotalS > rows[j].TotalS })
		for _, r := range rows {
			fmt.Printf("   %-28s %6d %12.6f %12.6f %12.6f\n", r.Name, r.Calls, r.TotalS, r.SelfS, r.MedianS)
		}
	}
}
