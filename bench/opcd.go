package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"goopc/internal/core"
	"goopc/internal/experiments"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/obs"
	"goopc/internal/server"
)

// jobType is one kind of job the opcd_jobs clients submit.
type jobType struct {
	name  string
	layer layout.Layer
	level core.Level
	tile  geom.Coord // 0: the server's default of four ambits
	build builder
}

// tileFor is the job's tile size under the flow: the server's default is
// four optical ambits.
func (jt jobType) tileFor(f *core.Flow) geom.Coord {
	if jt.tile != 0 {
		return jt.tile
	}
	return 4 * f.Ambit
}

// jobTypes are deliberately small (0.1 to 0.4 s of correction each), so
// that HTTP, GDS ingest, admission, job-record persistence, the watch
// stream and the artifact fetch are a visible share of what the caller
// waits for. The L1 job runs in almost no time: all of its latency is
// service overhead.
var jobTypes = []jobType{
	{"sram4x4-L2", layout.Poly, core.L2, 2520, buildSRAM(4, 4)},
	{"stdcell1x4-L2", layout.Poly, core.L2, 0, buildStdBlock(1, 4)},
	{"routed10k-L2", layout.Metal1, core.L2, 0, buildRouted(10000, 6)},
	{"routed10k-L1", layout.Metal1, core.L1, 0, buildRouted(10000, 6)},
}

// jobSequence is the order in which job types are submitted: rounds of
// every type once, each round in a seeded order, so that any stretch of
// the sequence holds the same mix whatever the seed.
func jobSequence(seed int64, rounds int) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, rounds*len(jobTypes))
	for r := 0; r < rounds; r++ {
		seq = append(seq, rng.Perm(len(jobTypes))...)
	}
	return seq
}

type opcdInst struct {
	e     env
	dir   string
	srv   *server.Server
	http  *http.Server
	base  string
	seq   []int
	gds   [][]byte
	specs []server.JobSpec
	// want holds each type's result digest from a direct run of the
	// flow; warm the digests of the jobs set-up ran to warm the server.
	want, warm [][32]byte
	flow       *core.Flow
	targets    [][]geom.Polygon
	masks      [][]geom.Polygon
	requests   atomic.Int64
	reg        *obs.Registry
}

func setupOpcd(e env) (instance, error) {
	w := &opcdInst{e: e, seq: jobSequence(e.seed, 256), reg: obs.NewRegistry()}
	cfg := experiments.Default()
	for _, jt := range jobTypes {
		in, err := encodeGDS(jt.build, e.offset())
		if err != nil {
			return nil, err
		}
		w.gds = append(w.gds, in)
		w.specs = append(w.specs, server.JobSpec{
			Name: jt.name, Layer: int(jt.layer), Level: fmt.Sprintf("L%d", int(jt.level)), TileNM: jt.tile,
			Inject: e.inject,
			Flow:   server.FlowSpec{SourceSteps: cfg.SourceSteps, GuardNM: cfg.GuardNM, BiasSpaces: cfg.BiasSpaces},
		})
	}
	var err error
	if w.dir, err = os.MkdirTemp(e.tmp, "opcd-"); err != nil {
		return nil, err
	}
	w.srv = server.New(server.Config{
		DataDir: w.dir, Workers: e.procs, SerialTiles: true, Registry: w.reg,
		Log: obs.NewLogger(io.Discard, obs.ParseLogLevel(true, false), "opcd"),
	})
	if err := w.srv.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	handler := w.srv.Handler()
	w.http = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.requests.Add(1)
		handler.ServeHTTP(rw, r)
	})}
	go w.http.Serve(ln) // returns when close shuts the server down

	// One job per type calibrates the server's flow and fills its
	// kernel cache, as the first rep does for a library workload.
	w.warm = make([][32]byte, len(jobTypes))
	for k := range jobTypes {
		r, digest := w.job(k, 0, 0, nil)
		if r.err != nil {
			w.close()
			return nil, fmt.Errorf("warming job %s: %w", jobTypes[k].name, r.err)
		}
		w.warm[k] = digest
	}
	return w, nil
}

func (w *opcdInst) clients() int { return w.e.procs }
func (w *opcdInst) round() int   { return len(jobTypes) }

// reference runs every job type directly through the flow, the way a
// caller without the service would, and holds the warming jobs to it.
func (w *opcdInst) reference() error {
	f, err := newFlow(w.e)
	if err != nil {
		return err
	}
	w.flow = f
	for k, jt := range jobTypes {
		ly, err := layout.ReadGDS(bytes.NewReader(w.gds[k]))
		if err != nil {
			return err
		}
		target := layout.Flatten(ly.Top, jt.layer)
		res, st, err := f.CorrectWindowed(target, jt.level, jt.tileFor(f), false)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", jt.name, err)
		}
		if n := st.DegradedRules + st.DegradedUncorrected; n != 0 {
			return fmt.Errorf("direct run of %s degraded %d tiles", jt.name, n)
		}
		out, err := resultGDS(res.Corrected, jt.layer)
		if err != nil {
			return err
		}
		w.want = append(w.want, sha256.Sum256(out))
		w.targets = append(w.targets, target)
		w.masks = append(w.masks, res.Corrected)
		if w.warm[k] != w.want[k] {
			return fmt.Errorf("%s: served result %x differs from the direct run's %x", jt.name, w.warm[k][:6], w.want[k][:6])
		}
	}
	return nil
}

func (w *opcdInst) op(i, tid int, tr *tracer) opResult {
	k := w.seq[i%len(w.seq)]
	r, digest := w.job(k, i, tid, tr)
	if r.err == nil && digest != w.want[k] {
		r.err = fmt.Errorf("%s: result %x differs from the direct run's %x", jobTypes[k].name, digest[:6], w.want[k][:6])
	}
	return r
}

// job is what `opcctl submit` does for its caller: upload the GDS, watch
// the job to its end, fetch result.gds.
func (w *opcdInst) job(k, i, tid int, tr *tracer) (opResult, [32]byte) {
	r := opResult{kind: jobTypes[k].name, inBytes: len(w.gds[k])}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := server.NewClient(w.base)
	t0 := time.Now()
	root := tr.start("job", nil, i, tid)

	s := tr.start("server.submit", root, i, tid)
	st, err := c.SubmitGDS(ctx, w.specs[k], bytes.NewReader(w.gds[k]))
	s.end()
	tSubmitted := time.Now()
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r, [32]byte{}
	}

	s = tr.start("server.watch", root, i, tid)
	fin, err := c.Watch(ctx, st.ID, nil)
	s.end()
	tSeen := time.Now()
	if err != nil {
		r.err = fmt.Errorf("watch: %w", err)
		return r, [32]byte{}
	}
	if fin.State != server.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		return r, [32]byte{}
	}

	s = tr.start("server.fetch", root, i, tid)
	var out bytes.Buffer
	_, err = c.Fetch(ctx, st.ID, "result.gds", &out)
	s.end()
	root.end()
	r.wall = time.Since(t0).Seconds()
	if err != nil {
		r.err = fmt.Errorf("fetch: %w", err)
		return r, [32]byte{}
	}
	r.outBytes = out.Len()
	r.aux = map[string]float64{
		"submit_ms":    tSubmitted.Sub(t0).Seconds() * 1e3,
		"watch_lag_ms": tSeen.Sub(fin.Finished).Seconds() * 1e3,
		"fetch_ms":     time.Since(tSeen).Seconds() * 1e3,
	}
	if fin.Latency != nil {
		r.aux["queue_s"] = fin.Latency.QueueSeconds
		r.aux["run_s"] = fin.Latency.RunSeconds
		r.aux["overhead_s"] = r.wall - fin.Latency.RunSeconds
	}
	if fin.Stats != nil {
		r.rms = fin.Stats.WorstRMS
		if fin.Stats.FailedTiles != 0 {
			r.err = fmt.Errorf("job %s degraded %d tiles", st.ID, fin.Stats.FailedTiles)
		}
	}
	return r, sha256.Sum256(out.Bytes())
}

// probe cuts the per-layer probes from the routed L2 job, the largest.
func (w *opcdInst) probe() probeInput {
	const k = 2
	return probeInput{flow: w.flow, target: w.targets[k], tile: jobTypes[k].tileFor(w.flow), mask: w.masks[k]}
}

func (w *opcdInst) counters() map[string]float64 {
	return map[string]float64{
		"server.http_requests": float64(w.requests.Load()),
		"server.rejected_429":  float64(w.reg.Snapshot().Counters["goopc_server_jobs_rejected_total"]),
	}
}

func (w *opcdInst) extra(map[string]float64) {}

func (w *opcdInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	if serr := w.srv.Stop(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
