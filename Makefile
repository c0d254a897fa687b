# Developer / CI entry points. Everything is plain go tooling; the
# targets just fix the flag sets so local runs and CI agree.

.PHONY: build test test-purego verify server-integration cluster-smoke patlib-bench-smoke trace-smoke dataset-smoke bench-selfcheck fuzz-short bench bench-micro bench-json

build:
	go build ./...

# Full suite (simulation-heavy; several minutes).
test:
	go test ./...

# The no-assembly leg: compile the SIMD butterfly kernels out entirely
# and prove the whole tree (and the kernel equivalence tests, now
# reference-vs-reference) still passes on the pure-Go path every
# non-amd64/arm64 port will take.
test-purego:
	go build -tags purego ./...
	go vet -tags purego ./...
	go test -tags purego -race ./internal/fft/ ./internal/optics/

# The CI gate: static checks plus the whole tree under the race
# detector (the lock-free obs registry, the parallel tile scheduler,
# the checkpoint writer and the opcd job server all have concurrency
# to defend), then the opcd integration suite forced uncached.
verify:
	go vet ./...
	go test -race ./...
	$(MAKE) test-purego
	$(MAKE) server-integration
	$(MAKE) cluster-smoke
	$(MAKE) patlib-bench-smoke
	$(MAKE) trace-smoke
	$(MAKE) dataset-smoke
	$(MAKE) bench-selfcheck

# The opcd service gate on its own: the job-server integration suite
# (concurrent submit parity, backpressure, chaos, restart recovery)
# under the race detector, never from the test cache.
server-integration:
	go vet ./internal/server/ ./cmd/opcd/ ./cmd/opcctl/
	go test -race -count=1 -run '^TestServer' ./internal/server/

# Distributed-cluster smoke (DESIGN.md 5i): a coordinator with three
# REAL worker processes (the test binary re-execs itself) corrects a
# job, one worker is SIGKILLed mid-shard, and the run must still finish
# with output bit-identical to the single-process engine — plus, on
# machines with >=4 CPUs, beat the forced-serial run on wall clock.
# Never cached, so the kill/requeue actually happens every run; run
# three times, so a race that fails one run in a few shows up here.
cluster-smoke:
	go test -count=3 -run '^TestClusterSmoke$$' ./internal/server/
	go test -count=1 -race -run '^TestCluster' ./internal/cluster/

# Pattern-library cold/warm smoke (DESIGN.md 5f): a tiny workload is
# solved cold into a fresh library, then rerun warm — the warm run must
# be served entirely by exact hits with byte-identical output, plus the
# rotated-similarity and fingerprint-mismatch guards. Never cached, so
# the on-disk round trip actually happens.
patlib-bench-smoke:
	go test -count=1 -run '^TestPatlibWarm|^TestPatlibFingerprint' ./internal/core/

# Dataset-factory / learned-prior smoke (DESIGN.md 5j): a tiny sweep is
# generated into a throwaway dataset, a shard is regenerated from the
# manifest's spec+seed and must match byte for byte, a prior is fitted
# from the records, and the same cells rerun warm must spend strictly
# fewer total model iterations while converging to the cold result
# (final RMS within ConvergeEps). Never cached, so the sweep, the fit
# and the warm rerun actually happen every run.
dataset-smoke:
	go test -count=1 -run '^TestSweepFitWarm$$' ./internal/dataset/

# Flight-recorder smoke (DESIGN.md 5h): a small seeded tiled run with
# -trace must produce a loadable Chrome trace-event file whose event
# counts reconcile exactly with the scheduler's TileStats. Never cached,
# so the CLI path, the export and the reconciliation all actually run.
trace-smoke:
	go test -count=1 -run '^TestTraceSmoke$$' ./cmd/opcflow/

# The benchmark harness's own checks (bench/README.md). bench/ is a
# module of its own, so `go vet ./...` and `go test ./...` at the root
# never see it; this is what keeps it compiling against the packages it
# measures. Under a second.
bench-selfcheck:
	cd bench && go vet . && go test .

# Short fuzz pass over the GDS ingest hardening (the seed corpora plus
# 30s of mutation per target); CI runs this, longer runs are manual.
fuzz-short:
	go test ./internal/gds/ -run '^$$' -fuzz 'FuzzReadGDS$$' -fuzztime 30s
	go test ./internal/gds/ -run '^$$' -fuzz 'FuzzReadGDSLayout$$' -fuzztime 30s
	go test ./internal/fft/ -run '^$$' -fuzz 'FuzzTransformEquivalence$$' -fuzztime 30s

# Regenerate the recorded evaluation tables.
bench:
	go run ./cmd/benchtables

# Regenerate the committed machine-readable bench artifacts (per-
# experiment wall/CPU/alloc plus counter deltas and cache hit rates).
bench-json:
	go run ./cmd/benchtables -exp T2 -exp T3 -exp PRIOR -json 'BENCH_<exp>.json'

# The aerial-image micro-benchmarks (FFT substrates plus the SOCS
# serial/parallel and Abbe engines; each iteration is a warm Aerial +
# Release) in short form: the quick check that a kernel or imaging
# change moved the needle the right way. On the 2-core reference host
# (PR 14): BenchmarkAerialImage 2.2 ms (2.4 ms without the Release; the
# unfused pass took 3.3 ms, the float32 path it replaced 3.0 ms),
# SOCSParallel 1.9 ms, Abbe 10.9 ms, AbbeParallel 8.0 ms,
# FFT2D256Planned 0.73 ms.
bench-micro:
	go test -run '^$$' -bench 'BenchmarkFFT2D|BenchmarkAerialImage' -benchtime 200ms .
