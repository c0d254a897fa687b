package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/obs"
)

// testSpec is the cheap-calibration flow every server test uses (same
// reduced sampling the core test flow uses).
func testSpec() FlowSpec {
	return FlowSpec{SourceSteps: 5, GuardNM: 1200, BiasSpaces: []geom.Coord{240, 420}}
}

// fourClusters builds four geometrically distinct isolated clusters,
// three tiles apart at tile 2500, so the scheduler sees four
// equivalence classes that complete one by one.
func fourClusters() []geom.Polygon {
	return []geom.Polygon{
		geom.R(200, 200, 380, 1700).Polygon(),
		geom.R(7700, 200, 7880, 2100).Polygon(),
		geom.R(15200, 200, 15380, 1200).Polygon(),
		geom.R(22700, 200, 22880, 900).Polygon(),
	}
}

// gdsBytes encodes polygons as a GDS stream on the poly layer.
func gdsBytes(t *testing.T, polys []geom.Polygon) []byte {
	t.Helper()
	ly := layout.New("upload")
	cell := ly.MustCell("TOP")
	for _, p := range polys {
		cell.AddPolygon(layout.Poly, p)
	}
	ly.SetTop(cell)
	var buf bytes.Buffer
	if _, err := layout.WriteGDS(&buf, ly); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type testEnv struct {
	srv *Server
	ts  *httptest.Server
	c   *Client
	reg *obs.Registry
}

func startTestServer(t *testing.T, mod func(*Config)) *testEnv {
	t.Helper()
	cfg := Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      4,
		CheckpointEvery: time.Millisecond,
		Log:             obs.NewLogger(io.Discard, obs.ParseLogLevel(true, false), "opcd-test"),
		Registry:        obs.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Stop(ctx)
	})
	return &testEnv{srv: srv, ts: ts, c: NewClient(ts.URL), reg: cfg.Registry}
}

func waitState(t *testing.T, c *Client, id string, pred func(JobStatus) bool, what string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if pred(st) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on job %s", what, id)
	return JobStatus{}
}

// TestServerEndToEndParity is the acceptance path: two concurrent
// upload jobs stream progress over SSE, finish, and their result.gds
// artifacts are bit-identical to the same correction run directly
// through the core Flow with the same settings (the opcflow path).
func TestServerEndToEndParity(t *testing.T) {
	target := fourClusters()
	env := startTestServer(t, func(c *Config) { c.Workers = 2 })
	spec := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec(), Verify: true}

	submit := func() string {
		st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, target)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st.State != StateQueued || st.ID == "" {
			t.Fatalf("submit status: %+v", st)
		}
		return st.ID
	}
	id1 := submit()
	id2 := submit()

	// Watch both over SSE concurrently.
	var wg sync.WaitGroup
	finals := make([]JobStatus, 2)
	events := make([]int, 2)
	for i, id := range []string{id1, id2} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			st, err := env.c.Watch(context.Background(), id, func(JobStatus) { events[i]++ })
			if err != nil {
				t.Errorf("watch %s: %v", id, err)
			}
			finals[i] = st
		}(i, id)
	}
	wg.Wait()
	for i, st := range finals {
		if st.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, st.State, st.Error)
		}
		if events[i] < 1 {
			t.Errorf("job %d: no SSE events", i)
		}
		if st.Stats == nil || st.Stats.Tiles != 4 {
			t.Errorf("job %d stats: %+v", i, st.Stats)
		}
		if st.Progress.DoneTiles != st.Progress.TotalTiles || st.Progress.TotalTiles == 0 {
			t.Errorf("job %d final progress %+v", i, st.Progress)
		}
	}

	// The reference: the same correction through the core engine with
	// the same settings and writer (what opcflow -out produces).
	base, err := buildFlow(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	f := *base
	res, _, err := f.CorrectWindowedCtx(context.Background(), target, core.L2, 2500, true)
	if err != nil {
		t.Fatal(err)
	}
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	for _, p := range res.Corrected {
		cell.AddPolygon(layout.OPCLayer(layout.Poly), p)
	}
	out.SetTop(cell)
	var want bytes.Buffer
	if _, err := layout.WriteGDS(&want, out); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{id1, id2} {
		var got bytes.Buffer
		if _, err := env.c.Fetch(context.Background(), id, "result.gds", &got); err != nil {
			t.Fatalf("fetch %s: %v", id, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("job %s result.gds (%d bytes) differs from direct flow run (%d bytes)",
				id, got.Len(), want.Len())
		}
		var rep bytes.Buffer
		if _, err := env.c.Fetch(context.Background(), id, "report.json", &rep); err != nil {
			t.Fatalf("fetch report %s: %v", id, err)
		}
		if !strings.Contains(rep.String(), `"opcd"`) {
			t.Errorf("report.json missing tool stamp: %s", rep.String()[:min(200, rep.Len())])
		}
		var orc bytes.Buffer
		if _, err := env.c.Fetch(context.Background(), id, "orc.json", &orc); err != nil {
			t.Fatalf("fetch orc %s: %v", id, err)
		}
		if !strings.Contains(orc.String(), `"tiles": 4`) {
			t.Errorf("orc.json did not verify 4 tiles: %s", orc.String())
		}
	}
}

// TestServerRefusesRemovedPrecision: the float32 imaging path is gone;
// a spec that still asks for it is refused with 422 rather than run in
// float64 behind the client's back, while the float64 spellings (and
// silence) are admitted as before.
func TestServerRefusesRemovedPrecision(t *testing.T) {
	env := startTestServer(t, nil)
	small := fourClusters()[:1]
	spec := JobSpec{Level: "L1", TileNM: 2500, Flow: testSpec()}
	spec.Flow.Precision = "f32"
	_, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, small)))
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("precision f32: got %v, want 422", err)
	}
	spec.Flow.Precision = "f64"
	st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, small)))
	if err != nil {
		t.Fatalf("precision f64 refused: %v", err)
	}
	waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State == StateDone }, "done")
}

// TestServerAdmissionBackpressure exercises both admission gates: the
// per-job tile budget (422) and the queue-depth cap (429 with a
// Retry-After hint), plus the goopc_server_* metric series.
func TestServerAdmissionBackpressure(t *testing.T) {
	env := startTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.MaxTilesPerJob = 2
		c.RetryAfterHint = 7 * time.Second
	})
	small := fourClusters()[:1]
	slow := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec(),
		Inject: "seed=1;tile:delay:n=50:d=30s"}

	// Occupy the only worker with a job stalled by an injected delay.
	blocker, err := env.c.SubmitGDS(context.Background(), slow, bytes.NewReader(gdsBytes(t, small)))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, env.c, blocker.ID, func(st JobStatus) bool { return st.State == StateRunning }, "running")

	// Tile budget: four clusters need 4 tiles > budget 2 -> 422.
	big := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec()}
	_, err = env.c.SubmitGDS(context.Background(), big, bytes.NewReader(gdsBytes(t, fourClusters())))
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget job: got %v, want 422", err)
	}

	// Fill the queue (depth 1), then the next submission must get 429
	// with the configured Retry-After.
	queued, err := env.c.SubmitGDS(context.Background(), slow, bytes.NewReader(gdsBytes(t, small)))
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if queued.State != StateQueued || queued.QueuePos != 1 {
		t.Fatalf("queued status: %+v", queued)
	}
	_, err = env.c.SubmitGDS(context.Background(), slow, bytes.NewReader(gdsBytes(t, small)))
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("saturated queue: got %v, want BusyError", err)
	}
	if be.RetryAfter != 7*time.Second {
		t.Errorf("Retry-After = %s, want 7s", be.RetryAfter)
	}

	// The acceptance metrics must be visible on /metrics.
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"goopc_server_jobs_queued 1",
		"goopc_server_jobs_running 1",
		"goopc_server_jobs_rejected_total 2", // 422 + 429
		"goopc_server_jobs_submitted_total 2",
		`goopc_server_job_tiles_total{job="` + blocker.ID + `"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Cancelling the queued job frees the slot immediately.
	st, err := env.c.Cancel(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("queued cancel -> %s, want cancelled", st.State)
	}

	// Cancelling the running blocker interrupts the injected delay.
	if _, err := env.c.Cancel(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, env.c, blocker.ID, func(st JobStatus) bool { return st.State.Terminal() }, "terminal")
	if final.State != StateCancelled {
		t.Errorf("running cancel -> %s, want cancelled", final.State)
	}

	// DELETE on a terminal job purges it entirely.
	if _, err := env.c.Cancel(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := env.c.Status(context.Background(), blocker.ID); err == nil {
		t.Error("purged job still has a status")
	}
}

// TestServerInjectedPanicDegrades checks the resilience ladder surfaces
// through the service: a job whose tile attempts all panic (injected)
// still completes, with the degraded tiles counted in failed_tiles.
func TestServerInjectedPanicDegrades(t *testing.T) {
	env := startTestServer(t, nil)
	spec := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec(),
		// Default TileRetries is 2 -> 3 attempts, all panicking -> the
		// ladder degrades the class to rule-based correction.
		Inject: "seed=1;tile:panic:n=3"}
	st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, fourClusters()[:1])))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("job %s (%s), want done", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.FailedTiles < 1 {
		t.Errorf("failed_tiles not reported: %+v", final.Stats)
	}
	if final.Stats.Panics < 1 {
		t.Errorf("panics not reported: %+v", final.Stats)
	}
}

// TestServerRestartRecovery kills the daemon mid-job and verifies the
// restarted server requeues the job, resumes from its checkpoint
// (restored tile classes, not re-corrected), and finishes.
func TestServerRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	reg1 := obs.NewRegistry()
	cfg := Config{
		DataDir: dataDir, Workers: 1, QueueDepth: 4,
		SerialTiles:     true, // tiles complete one by one
		CheckpointEvery: time.Millisecond,
		Log:             obs.NewLogger(io.Discard, obs.ParseLogLevel(true, false), "opcd-test"),
		Registry:        reg1,
	}
	s1 := New(cfg)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c1 := NewClient(ts1.URL)

	// Every tile attempt stalls 150ms, so the job is mid-flight long
	// enough to observe partial progress.
	spec := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec(),
		Inject: "seed=1;tile:delay:n=50:d=150ms"}
	st, err := c1.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, fourClusters())))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, st.ID, func(s JobStatus) bool {
		return s.State == StateRunning && s.Progress.DoneTiles >= 1
	}, "first tile done")

	// Kill the daemon: running jobs get cancelled, flush a final
	// checkpoint, and stay "running" on disk.
	ts1.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Stop(sctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	// Restart on the same data dir.
	cfg.Registry = obs.NewRegistry()
	s2 := New(cfg)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	c2 := NewClient(ts2.URL)
	t.Cleanup(func() {
		ts2.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Stop(sctx)
	})

	recovered, err := c2.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if !recovered.Recovered {
		t.Errorf("job not flagged recovered: %+v", recovered)
	}
	final := waitState(t, c2, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("recovered job %s (%s), want done", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.ResumedTiles < 1 {
		t.Errorf("no tiles resumed from checkpoint: %+v", final.Stats)
	}
	var got bytes.Buffer
	if _, err := c2.Fetch(context.Background(), st.ID, "result.gds", &got); err != nil {
		t.Fatalf("fetch after recovery: %v", err)
	}
	if got.Len() == 0 {
		t.Error("empty result.gds after recovery")
	}
}

// TestServerWorkloadAndChaosProbe covers workload-sourced jobs plus the
// server's own "http" fault site.
func TestServerWorkloadAndChaosProbe(t *testing.T) {
	plan, err := faults.Parse("seed=1;http:error:n=1")
	if err != nil {
		t.Fatal(err)
	}
	env := startTestServer(t, func(c *Config) {
		// Fail the very first API request deterministically.
		c.FaultPlan = plan
	})
	// First request hits the injected fault -> 503. Retries off so the
	// raw failure surfaces instead of being transparently absorbed.
	env.c.MaxRetries = 0
	_, err = env.c.List(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("chaos probe: got %v, want 503", err)
	}
	env.c.MaxRetries = 3
	// Subsequent requests are clean.
	spec := JobSpec{Workload: "patterns", Level: "L1", Flow: testSpec()}
	st, err := env.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("workload job %s (%s), want done", final.State, final.Error)
	}
	if final.Upload {
		t.Error("workload job flagged as upload")
	}
}
