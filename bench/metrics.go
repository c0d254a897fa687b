package main

// metricDef names one metric and its unit. BENCHMARK.json repeats both
// lists with each metric's direction and bound; stats_test.go holds the
// two to each other.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from operations run with harness spans off. An operation is
// a rep of the user pipeline (routed_cold, sram_dedup), a warm rerun
// (patlib_fill_warm) or a job from submit to result.gds in hand
// (opcd_jobs).
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median wall of one set-up
	{"wall_s", "s"},        // median wall of one operation; per job type, then averaged, on opcd_jobs
	{"ops_per_s", "1/s"},   // operations completed per second of the measured window, P clients on opcd_jobs
	{"cpu_s", "s"},         // process user+system CPU per operation
	{"alloc_mb", "MB"},     // heap bytes allocated per operation
	{"epe_rms_nm", "nm"},   // worst tile EPE RMS of the result: the accuracy the time is "to"
	{"out_gds_bytes", "B"}, // size of the corrected GDS; mean over the job types on opcd_jobs
}

// perLayer are the metrics of single layers, reported by a traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"gds.read_s", "s"},
	{"gds.write_s", "s"},
	{"gds.read_mb_per_s", "MB/s"},
	{"layout.flatten_s", "s"},
	{"geom.boolean_ms", "ms"},
	{"geom.fragment_us_per_poly", "us"},
	{"geom.index_query_us", "us"},
	{"fft.transforms", "count"},
	{"fft.grid_gets", "count"},
	{"fft.grid_allocs", "count"},
	{"fft.fwd2d_us", "us"},
	{"fft.est_busy_s", "s"},
	{"optics.images", "count"},
	{"optics.kernel_builds", "count"},
	{"optics.kernel_hit_rate", "ratio"},
	{"optics.aerial_ms", "ms"},
	{"optics.kernel_build_ms", "ms"},
	{"optics.est_busy_s", "s"},
	{"resist.contour_ms", "ms"},
	{"model.runs", "count"},
	{"model.iterations", "count"},
	{"model.iters_per_run", "count"},
	{"model.early_exit_share", "ratio"},
	{"model.tile_solve_ms", "ms"},
	{"rules.apply_ms", "ms"},
	{"core.correct_s", "s"},
	{"core.tiles", "count"},
	{"core.tile_solves", "count"},
	{"core.reused_tiles", "count"},
	{"core.clean_tiles", "count"},
	{"core.pruned_tiles", "count"},
	{"core.dedup_share", "ratio"},
	{"core.solve_busy_s", "s"},
	{"core.sched_overhead_s", "s"},
	{"core.wall_1p_s", "s"},
	{"core.parallel_eff", "ratio"},
	{"mask.analyze_s", "s"},
	{"mask.figures", "count"},
	{"mask.vertices", "count"},
	{"mask.shots", "count"},
	{"patlib.appends", "count"},
	{"patlib.exact_hits", "count"},
	{"patlib.misses", "count"},
	{"patlib.lib_bytes", "B"},
	{"patlib.open_ms", "ms"},
	{"patlib.fill_wall_s", "s"},
	{"patlib.append_overhead_s", "s"},
	{"server.submit_ms_p50", "ms"},
	{"server.watch_lag_ms_p50", "ms"},
	{"server.fetch_ms_p50", "ms"},
	{"server.queue_s_p50", "s"},
	{"server.run_s_p50", "s"},
	{"server.job_s_p90", "s"},
	{"server.job_overhead_s_p50", "s"},
	{"server.upload_bytes", "B"},
	{"server.result_bytes", "B"},
	{"server.http_requests", "count"},
	{"server.rejected_429", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	{"ledger.unattributed_share", "ratio"},
}

// exactCounts are the per-operation counts that repeat exactly between
// runs of the same code, whatever the seed: every rep of a library
// workload does the same work, and a window of opcd_jobs is a whole
// number of rounds over the job types. They may back a claim as counts,
// never as a speed-up; -compare holds two run sets to each other on them.
var exactCounts = []string{
	"fft.transforms", "optics.images", "model.runs", "model.iterations",
	"core.tiles", "core.tile_solves", "core.reused_tiles", "core.clean_tiles", "core.pruned_tiles",
	"mask.figures", "mask.vertices", "mask.shots",
	"patlib.appends", "patlib.exact_hits", "patlib.misses",
}
