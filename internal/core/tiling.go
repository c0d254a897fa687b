package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"goopc/internal/geom"
	"goopc/internal/obs"
	"goopc/internal/obs/trace"
	"goopc/internal/opc"
	"goopc/internal/opc/model"
	"goopc/internal/par"
	"goopc/internal/patlib"
)

// TileStats reports a windowed full-layer correction run.
type TileStats struct {
	// Tiles is the number of scheduled tiles: grid tiles that actually
	// contain target geometry. EmptyPruned counts the grid tiles
	// dropped at enumeration time because the spatial index proved them
	// empty.
	Tiles       int
	EmptyPruned int
	Polygons    int
	Corrected   int
	// CorrectedTiles counts (tile, pass) engine runs; ReusedTiles the
	// (tile, pass) results obtained by translating a deduplicated
	// equivalence-class representative; CleanTiles the pass-2+ tiles
	// skipped because no pass-1 movement reached their halo.
	CorrectedTiles int
	ReusedTiles    int
	CleanTiles     int
	// Iterations is the total model-iteration count over all engine
	// runs — the quantity the convergence early-exit shrinks.
	Iterations int
	// Passes is the number of context passes run.
	Passes int
	// Seconds is the wall-clock correction time (all tiles, all passes).
	Seconds float64
	// WorstRMS is the worst per-tile final EPE RMS of the last pass.
	WorstRMS float64
	// Resilience accounting. Retries counts tile-class attempts beyond
	// the first; Panics the worker panics recovered; Timeouts the
	// attempts aborted by the per-tile timeout. DegradedRules and
	// DegradedUncorrected count (tile, pass) results produced by the
	// degradation ladder after retries were exhausted; each such class
	// is also recorded in Degradations. ResumedTiles counts (tile,
	// pass) results restored from a checkpoint.
	Retries             int
	Panics              int
	Timeouts            int
	DegradedRules       int
	DegradedUncorrected int
	ResumedTiles        int
	// RemoteTiles counts (tile, pass) results solved by cluster workers
	// through Flow.ClassSolver, member-weighted like the library rungs.
	RemoteTiles  int
	Degradations []TileDegradation
	// Pattern-library accounting (DESIGN.md 5f). LibExactTiles and
	// LibSimilarTiles count (tile, pass) results served from the
	// cross-run library (exact class-key hit; orientation-similarity hit
	// that passed the halo-validity check). LibHaloRejects counts
	// similarity candidates rejected because the stored context ring
	// differed, LibMisses the probed classes that fell through to a full
	// solve, and LibAppends the freshly solved classes persisted for
	// future runs.
	LibExactTiles   int
	LibSimilarTiles int
	LibHaloRejects  int
	LibMisses       int
	LibAppends      int
	// Learned-prior accounting (DESIGN.md 5j). WarmTiles counts engine
	// runs the initial-bias prior warm-started (at least one fragment
	// seeded before iteration 0); WarmFragments the fragments seeded;
	// PriorSavedIters the estimated iterations those warm starts saved
	// against the prior's cold-corpus mean. All zero when Flow.Prior is
	// nil.
	WarmTiles       int
	WarmFragments   int
	PriorSavedIters int
}

// TileDegradation records one tile class that exhausted its model-OPC
// retry budget and fell back down the degradation ladder. Uncorrected
// fallbacks must be re-verified (ORC) before tape-out — the run
// completed, but those tiles carry drawn geometry.
type TileDegradation struct {
	// Pass is the context pass; Tile the representative tile core;
	// Members how many placements received the degraded result.
	Pass    int       `json:"pass"`
	Tile    geom.Rect `json:"tile"`
	Members int       `json:"members"`
	// Mode is "rules" (rule-based fallback) or "uncorrected".
	Mode string `json:"mode"`
	// Err is the final model-path error that forced the fallback.
	Err string `json:"err"`
}

// tileJob is one scheduled tile: its core rectangle and the target
// geometry clipped to it (computed once — the active geometry never
// changes across passes).
type tileJob struct {
	core   geom.Rect
	active []geom.Polygon
}

// CorrectWindowed runs model-based correction over an arbitrarily large
// flat layer by tiling: each tile corrects the geometry clipped to its
// core (cut edges frozen) with a halo of frozen context, so no
// simulation window exceeds the optics grid limit. This is the shape of
// every production full-chip OPC engine; the halo is the
// stitching-accuracy knob.
//
// Correction runs in two context passes: pass 1 corrects every tile
// against as-drawn halo context; pass 2 re-corrects against the pass-1
// corrected context. Without the second pass every tile assumes its
// neighbors stay drawn while they all move — the assembled mask then
// systematically overshoots (each tile's correction double-counts the
// proximity change its neighbors are also making).
//
// The scheduler is reuse-aware and incremental:
//
//   - Empty tiles are pruned at enumeration time using the grid index.
//   - Tiles whose active+context geometry is identical up to a
//     translation are corrected once: the equivalence-class
//     representative is corrected at a canonical origin and the result
//     is translated to every placement (exact — the imaging stack is
//     translation-invariant for integer shifts).
//   - Pass 2 re-corrects only dirty tiles: tiles whose halo ring
//     intersects geometry that moved in pass 1. The skip is exact: a
//     clean tile's context is area-identical across passes, so
//     re-correction would reproduce its pass-1 result.
//   - The engine stops iterating once the EPE-RMS improvement drops
//     below Flow.ConvergeEps instead of always spending MaxIter.
//
// Per-tile results are collected by job index and concatenated in tile
// order, so the output polygon order is deterministic and identical
// between serial and parallel runs. Tiles run in parallel across CPUs
// when parallel is true.
//
// CorrectWindowed runs with a background context; CorrectWindowedCtx
// adds cancellation, per-tile isolation with retry and degradation, and
// checkpoint/resume — the resilience layer of DESIGN.md 5e.
func (f *Flow) CorrectWindowed(target []geom.Polygon, level Level, tile geom.Coord, parallel bool) (opc.Result, TileStats, error) {
	return f.CorrectWindowedCtx(context.Background(), target, level, tile, parallel)
}

// CorrectWindowedCtx is the resilient tiled driver. On top of the
// scheduler above:
//
//   - The run honors ctx (and Flow.Deadline, when positive): SIGINT,
//     deadline expiry, or caller cancellation stops the run between
//     tile attempts — and, via the engine's context, between model
//     iterations and imaging kernels — returning the context error.
//   - Each tile attempt is panic-isolated and bounded by
//     Flow.TileTimeout. A failed attempt is retried up to
//     Flow.TileRetries times with doubling context-aware backoff; a
//     tile still failing degrades to rule-based correction, and
//     finally to uncorrected-as-drawn, recorded in TileStats and the
//     goopc_tile_* series. Degradation never loses the run.
//   - When Flow.CheckpointPath is set, completed canonical tile-class
//     results are persisted periodically and at run end (also on
//     cancellation), and Flow.Resume restores them: resumed runs skip
//     finished classes and produce bit-identical output. Degraded
//     results are never checkpointed, so a fault-free resume converges
//     to the fault-free answer.
func (f *Flow) CorrectWindowedCtx(ctx context.Context, target []geom.Polygon, level Level, tile geom.Coord, parallel bool) (_ opc.Result, _ TileStats, retErr error) {
	var st TileStats
	if len(target) == 0 {
		return opc.Result{}, st, fmt.Errorf("core: empty target")
	}
	if f.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Deadline)
		defer cancel()
	}
	if level == L0 {
		return opc.Uncorrected(target), st, nil
	}
	if level == L1 {
		// Rule-based correction is local geometry: no tiling needed.
		t0 := time.Now()
		res, err := f.Rules.ApplyCtx(ctx, target)
		if err != nil {
			return opc.Result{}, st, fmt.Errorf("core: %w", err)
		}
		st.Seconds = time.Since(t0).Seconds()
		st.Polygons = len(target)
		st.Corrected = len(res.Corrected)
		st.Tiles = 1
		return res, st, nil
	}
	if tile < 2*f.Ambit {
		return opc.Result{}, st, fmt.Errorf("core: tile %d smaller than twice the ambit %d", tile, f.Ambit)
	}
	r := &tileRun{f: f, ctx: ctx, level: level, tile: tile, sched: f.Tracer.Worker(0)}
	r.st = TileStats{Polygons: len(target), Passes: f.TilePasses}
	if r.st.Passes < 1 {
		r.st.Passes = 2
	}
	if level == L2 {
		// Single-iteration correction moves edges too little for
		// context double-counting to matter; one pass.
		r.st.Passes = 1
	}

	// Cross-run pattern library (DESIGN.md 5f). A shared Flow.PatLib
	// (the opcd server's) takes precedence; otherwise PatternLibPath
	// opens a run-scoped library. An incompatible fingerprint yields a
	// nil session — every rung then misses and the run solves normally.
	plib := f.PatLib
	if plib == nil && f.PatternLibPath != "" {
		owned, perr := patlib.Open(f.PatternLibPath, f.PatLibReadOnly)
		if perr != nil {
			return opc.Result{}, r.st, fmt.Errorf("core: pattern library %s: %w", f.PatternLibPath, perr)
		}
		defer owned.Close()
		plib = owned
	}
	if plib != nil {
		r.psess = plib.Session(f.patlibFingerprint(tile))
	}

	// Checkpoint/resume setup. The fingerprint ties artifacts to this
	// exact (target, level, settings) combination. needHash gates the
	// fixed-size class-key digest checkpoint storage and the pattern
	// library use.
	r.needHash = f.CheckpointPath != "" || f.Resume != nil || r.psess != nil || f.ClassSolver != nil
	if r.needHash {
		fp := f.runFingerprint(target, level, tile, r.st.Passes)
		seed := f.Resume
		if seed != nil && seed.Fingerprint != fp {
			return opc.Result{}, r.st, fmt.Errorf("core: checkpoint fingerprint %.12s.. does not match run %.12s.. (different target or settings): %w",
				seed.Fingerprint, fp, ErrCheckpointMismatch)
		}
		if seed == nil {
			seed = NewCheckpoint(fp, level.String(), tile)
		}
		r.ckpt = newCkptWriter(seed, f.CheckpointPath, f.CheckpointEvery, f.Tracer)
		// Final flush on every exit path — success, failure, SIGINT —
		// so completed work always survives the process.
		defer func() {
			if ferr := r.ckpt.flush(); ferr != nil && retErr == nil {
				retErr = ferr
			}
		}()
	}

	r.schedule(target)
	if len(r.jobs) == 0 {
		return opc.Result{}, r.st, fmt.Errorf("core: no tiles contain geometry")
	}
	mRuns.Inc()
	mTilesScheduled.Add(int64(len(r.jobs)))
	mTilesEmptyPruned.Add(int64(r.st.EmptyPruned))

	t0 := time.Now()
	var err error
	for pass := 1; pass <= r.st.Passes && err == nil; pass++ {
		err = r.runPass(pass, parallel)
	}
	if err != nil {
		r.st.Seconds = time.Since(t0).Seconds()
		return opc.Result{}, r.st, err
	}
	out := r.output()
	r.st.Seconds = time.Since(t0).Seconds()
	return out, r.st, nil
}

// tileRun is one CorrectWindowedCtx run: the schedule, the reuse stores,
// per-tile state carried across passes, and the statistics so far.
type tileRun struct {
	f     *Flow
	ctx   context.Context
	level Level
	tile  geom.Coord
	jobs  []tileJob
	ckpt  *ckptWriter
	psess *patlib.Session
	// needHash gates the fixed-size class-key digest (the checkpoint,
	// remote and pattern-library key).
	needHash bool
	// sched is the flight-recorder ring of the scheduler's serial stages
	// (DESIGN.md 5h); each pool goroutine emits on its own ring. A nil
	// Flow.Tracer yields nil handles and every Emit is a no-op.
	sched *trace.Worker
	st    TileStats
	// Per-run tile progress, mirrored to Flow.Progress subscribers (the
	// global goopc_tiles_done gauge stays process-wide).
	doneTiles atomic.Int64

	// results and tileRMS hold each tile's latest placed result. xorBase
	// is what that result is diffed against to find moved geometry: the
	// drawn active before pass 1, the previous pass's result afterwards.
	// The context source is the drawn layer on pass 1, the previous
	// pass's corrected layer afterwards.
	results, xorBase [][]geom.Polygon
	tileRMS          []float64
	movedIdx, ctxIdx *geom.GridIndex
	ctxPolys         []geom.Polygon

	// Per pass: each scheduled tile's clipped halo context and the
	// remote solver's answers. firstErr is the run's first fatal error.
	contexts [][]geom.Polygon
	remote   map[string]CheckpointEntry
	failOnce sync.Once
	firstErr error
}

// schedule enumerates the tiles that hold geometry and sets up the
// per-tile state carried across passes. Empty tiles are pruned: the
// index proves most of them empty from bounding boxes alone; the clip
// catches boxes that touch a core without contributing geometry.
func (r *tileRun) schedule(target []geom.Polygon) {
	idx, cores, pruned := gridCores(target, r.tile)
	r.st.EmptyPruned = pruned
	for _, core := range cores {
		active := clipToRegion(target, idx, core, geom.RegionFromRects(core))
		if len(active) == 0 {
			r.st.EmptyPruned++
			continue
		}
		r.jobs = append(r.jobs, tileJob{core: core, active: active})
	}
	r.st.Tiles = len(r.jobs)
	r.results = make([][]geom.Polygon, len(r.jobs))
	r.tileRMS = make([]float64, len(r.jobs))
	r.xorBase = make([][]geom.Polygon, len(r.jobs))
	for i := range r.jobs {
		r.xorBase[i] = r.jobs[i].active
	}
	r.ctxPolys, r.ctxIdx = target, idx
}

// output concatenates the tile results in tile order — so serial and
// parallel runs emit identical polygon streams — and completes the run
// statistics.
func (r *tileRun) output() opc.Result {
	var out opc.Result
	for i := range r.jobs {
		out.Corrected = append(out.Corrected, r.results[i]...)
	}
	for _, rms := range r.tileRMS {
		if rms > r.st.WorstRMS {
			r.st.WorstRMS = rms
		}
	}
	if r.psess != nil {
		// Per-tile hit accounting folded in stage 3; the session-level
		// probe counters land here once per run.
		r.st.LibHaloRejects = int(r.psess.HaloRejects.Load())
		r.st.LibMisses = int(r.psess.Misses.Load())
		r.st.LibAppends = int(r.psess.Appends.Load())
	}
	r.st.Corrected = len(out.Corrected)
	return out
}

// tileClass groups the tiles of one pass whose active+context geometry
// is identical after translating each tile origin to (0,0). rep is the
// lowest member job index; key the class-key hash ("" when no store
// needs it).
type tileClass struct {
	rep     int
	members []int
	key     string
}

// runPass runs one context pass: stage 1 classes the tiles, the remote
// solver gets its offer, stage 2 resolves one representative per class
// and stage 3 places and tallies the results.
func (r *tileRun) runPass(pass int, parallel bool) error {
	if cerr := r.ctx.Err(); cerr != nil {
		return fmt.Errorf("core: pass %d: %w", pass, cerr)
	}
	defer r.f.Span.Start(fmt.Sprintf("tile-pass-%d", pass)).End()
	mPasses.Inc()
	mTilesTotal.Set(float64(len(r.jobs)))
	mTilesDone.Set(0)
	r.doneTiles.Store(0)
	r.progress(pass, 0)
	classes := r.classify(pass)
	r.offerRemote(pass, classes)

	// Stage 2 (parallel): one call per class, each on whichever
	// goroutine the compute budget has for it: the caller plus up to
	// one extra per spare core. A pass that holds every core makes the
	// imaging fan-outs underneath run inline; as its tail drains they
	// fan out again.
	classRes := make([]classResult, len(classes))
	solve := func(worker, ci int) { r.resolve(worker, pass, classes[ci], &classRes[ci]) }
	if parallel {
		par.Each(len(classes), solve)
	} else {
		for ci := range classes {
			solve(0, ci)
		}
	}
	if r.firstErr != nil {
		return r.firstErr
	}
	r.fold(pass, classes, classRes)
	if pass < r.st.Passes {
		r.prepareNextPass()
	}
	return nil
}

// progress counts add more resolved tiles and reports the pass's state
// to the goopc_tiles_done gauge and Flow.Progress.
func (r *tileRun) progress(pass, add int) {
	mTilesDone.Add(float64(add))
	done := r.doneTiles.Add(int64(add))
	if r.f.Progress != nil {
		r.f.Progress(ProgressEvent{Pass: pass, Passes: r.st.Passes, DoneTiles: int(done), TotalTiles: len(r.jobs)})
	}
}

// fail records the run's first fatal error; the pass stops at the end of
// stage 2 and the run returns it.
func (r *tileRun) fail(err error) { r.failOnce.Do(func() { r.firstErr = err }) }

// classify is stage 1 (serial, cheap): dirty filtering and dedup
// classing. The representative is the lowest job index, so classing is
// deterministic and independent of worker scheduling. The dedup map
// uses the exact canonical encoding (no collisions); the checkpoint key
// is its fixed-size hash.
func (r *tileRun) classify(pass int) []*tileClass {
	f := r.f
	var classes []*tileClass
	classOf := map[string]int{}
	r.contexts = make([][]geom.Polygon, len(r.jobs))
	var keyBuf []byte
	for i := range r.jobs {
		core := r.jobs[i].core
		window := core.Grow(f.Ambit)
		r.sched.Emit(trace.TileScheduled, pass, core, 1, 0, 0, "")
		if pass > 1 && !f.DisableDirtySkip && !ringDirty(r.movedIdx, window, core) {
			// Context unchanged within the halo: the engine would
			// reproduce the previous pass's result. Keep it.
			r.sched.Emit(trace.TileCleanSkip, pass, core, 1, 0, 0, "")
			r.st.CleanTiles++
			mTilesClean.Inc()
			r.progress(pass, 1)
			continue
		}
		ring := geom.RegionFromRects(window).Subtract(geom.RegionFromRects(core))
		r.contexts[i] = clipToRegion(r.ctxPolys, r.ctxIdx, window, ring)
		var key string
		if !f.DisableDedup || r.needHash {
			origin := geom.Pt(core.X0, core.Y0)
			keyBuf = keyBuf[:0]
			keyBuf = geom.AppendCanonicalPolygons(keyBuf, r.jobs[i].active, origin)
			keyBuf = geom.AppendCanonicalPolygons(keyBuf, r.contexts[i], origin)
			if r.needHash {
				key = classKeyHash(keyBuf)
			}
		}
		if f.DisableDedup {
			classes = append(classes, &tileClass{rep: i, members: []int{i}, key: key})
			continue
		}
		exact := string(keyBuf)
		if ci, ok := classOf[exact]; ok {
			classes[ci].members = append(classes[ci].members, i)
		} else {
			classOf[exact] = len(classes)
			classes = append(classes, &tileClass{rep: i, members: []int{i}, key: key})
		}
	}
	return classes
}

// offerRemote is the distribution seam (DESIGN.md 5i): classes the
// resume checkpoint does not already cover are offered to the external
// class solver — the cluster coordinator — in canonical frame before
// the local pool runs. The solver is best-effort: any class it does not
// return falls through to the rest of the resolver chain, so a
// degenerate cluster costs nothing beyond this call.
func (r *tileRun) offerRemote(pass int, classes []*tileClass) {
	r.remote = nil
	if r.f.ClassSolver == nil || r.ctx.Err() != nil {
		return
	}
	reqs := make([]ClassSolveRequest, 0, len(classes))
	for _, c := range classes {
		if _, ok := r.ckpt.lookup(pass, c.key); ok {
			continue
		}
		j := r.jobs[c.rep]
		shift := geom.Pt(-j.core.X0, -j.core.Y0)
		reqs = append(reqs, ClassSolveRequest{
			Pass:   pass,
			Key:    c.key,
			Core:   j.core.Translate(shift),
			Active: geom.TranslatePolygons(j.active, shift),
			Halo:   geom.TranslatePolygons(r.contexts[c.rep], shift),
		})
	}
	if len(reqs) > 0 {
		r.remote = r.f.ClassSolver(r.ctx, r.level, r.tile, reqs)
	}
}

// provenance names the rung of the resolver chain that produced a class
// result. The zero value is the local solve, so correctClass results
// need no marking.
type provenance uint8

const (
	srcSolved     provenance = iota // local engine solve (correctClass)
	srcResumed                      // resume checkpoint
	srcRemote                       // Flow.ClassSolver (a cluster worker)
	srcLibExact                     // pattern library, exact class key
	srcLibSimilar                   // pattern library, orientation-similar
)

// rungs says what each provenance means downstream: the flight-recorder
// event the stage-2 epilogue emits for it; the TileStats field and
// goopc_* counter stage 3 bumps by the class's member count (the
// pattern library counts its own hits, and a local solve is tallied
// apart as one engine run plus dedup reuses); and where its clean
// results are recorded — the checkpoint, so a resume skips the class,
// and the pattern library, which only ever holds engine solutions (no
// derived-from-derived drift).
var rungs = [...]struct {
	event        trace.Kind
	tiles        func(*TileStats) *int
	counter      *obs.Counter
	ckpt, patlib bool
}{
	srcSolved:     {event: trace.SolveEnd, ckpt: true, patlib: true},
	srcResumed:    {event: trace.TileResumed, tiles: func(st *TileStats) *int { return &st.ResumedTiles }, counter: mTilesResumed},
	srcRemote:     {event: trace.TileRemote, tiles: func(st *TileStats) *int { return &st.RemoteTiles }, counter: mTilesRemote, ckpt: true, patlib: true},
	srcLibExact:   {event: trace.TileLibExact, tiles: func(st *TileStats) *int { return &st.LibExactTiles }, ckpt: true},
	srcLibSimilar: {event: trace.TileLibSimilar, tiles: func(st *TileStats) *int { return &st.LibSimilarTiles }, ckpt: true},
}

// classGeom is a class representative's geometry where it sits. A
// singleton solves in place; a multi-member class solves in the
// canonical frame (tile origin at (0,0)) so every placement receives the
// identical solution. The canonical copies are built on first use,
// since most reuse hits never need them; active is never empty, so a
// nil cActive means not built yet.
type classGeom struct {
	core                         geom.Rect
	members                      int
	active, halo, cActive, cHalo []geom.Polygon
}

// toCanon is the shift from the placement to the canonical frame.
func (g *classGeom) toCanon() geom.Point { return geom.Pt(-g.core.X0, -g.core.Y0) }

// canonical returns the active and halo geometry in the canonical frame.
func (g *classGeom) canonical() (active, halo []geom.Polygon) {
	if g.cActive == nil {
		g.cActive, g.cHalo = geom.TranslatePolygons(g.active, g.toCanon()), geom.TranslatePolygons(g.halo, g.toCanon())
	}
	return g.cActive, g.cHalo
}

// resolve is stage 2 for one class: it walks the resolver chain, then
// runs the one epilogue every rung shares — emit the rung's event,
// report progress, record the result where the rung says, and leave it
// in *out in the frame stage 3 places it from.
func (r *tileRun) resolve(worker, pass int, c *tileClass, out *classResult) {
	// Worker 0 is the coordinator's ring; solving goroutines record on
	// rings 1 and up.
	tw := r.f.Tracer.Worker(int32(worker) + 1)
	if cerr := r.ctx.Err(); cerr != nil {
		// Run cancelled: drain the queue without working.
		r.fail(fmt.Errorf("core: pass %d: %w", pass, cerr))
		return
	}
	j := r.jobs[c.rep]
	n := len(c.members)
	g := classGeom{core: j.core, members: n, active: j.active, halo: r.contexts[c.rep]}
	cr := r.resolveClass(tw, pass, c.key, &g)
	rung := rungs[cr.src]
	detail := cr.degraded
	if cr.err != nil {
		detail = "aborted: " + cr.err.Error()
	}
	tw.Emit(rung.event, pass, j.core, n, cr.iters, cr.rms, detail)
	if cr.degraded != "" {
		tw.Emit(trace.TileDegrade, pass, j.core, n, 0, 0, cr.degraded+": "+cr.degErr)
	}
	r.progress(pass, n)
	if cr.err != nil {
		r.fail(fmt.Errorf("core: pass %d tile %v: %w", pass, j.core, cr.err))
		return
	}
	// Every rung answers in the canonical frame except the local solve,
	// which answers in the class's solve frame; the two differ only for
	// singletons. Degraded results are never recorded: a resume
	// re-attempts them, so fault-free resumes reproduce the fault-free
	// output, and the library never serves a fallback as a solution.
	solvedInPlace := n == 1 && cr.src == srcSolved
	toPatlib, toCkpt := rung.patlib && r.psess != nil, rung.ckpt && r.ckpt != nil
	if cr.degraded == "" && (toPatlib || toCkpt) {
		canon := cr.polys
		if solvedInPlace {
			canon = geom.TranslatePolygons(cr.polys, g.toCanon())
		}
		if toPatlib {
			active, halo := g.canonical()
			r.psess.Append(r.level.String(), c.key, r.tile, active, halo, canon, cr.rms, cr.iters)
		}
		if toCkpt {
			if err := r.ckpt.add(pass, c.key, CheckpointEntry{Polys: canon, RMS: cr.rms, Iters: cr.iters}); err != nil {
				r.fail(err)
			}
		}
	}
	if n == 1 && !solvedInPlace {
		cr.polys = geom.TranslatePolygons(cr.polys, geom.Pt(j.core.X0, j.core.Y0))
	}
	*out = cr
}

// resolveClass is the resolver chain: it tries each rung in a fixed
// order — resume checkpoint, remote class solver, pattern-library exact
// hit, pattern-library similarity hit, local solve — and returns the
// first answer. Checkpoint, remote and library entries are all stored
// in the canonical frame under the same contract, so the reuse rungs
// are bit-identical to the solve that produced them, except a
// similarity hit: fragmentation is not orientation-covariant, so its
// carried solution is engine-equivalent within ConvergeEps and is
// accounted separately.
func (r *tileRun) resolveClass(tw *trace.Worker, pass int, key string, g *classGeom) classResult {
	if ent, ok := r.ckpt.lookup(pass, key); ok {
		return classResult{polys: ent.Polys, rms: ent.RMS, iters: ent.Iters, src: srcResumed}
	}
	if ent, ok := r.remote[key]; ok {
		// Workers report degraded classes as unsolved, so remote
		// entries are always clean engine solutions.
		return classResult{polys: ent.Polys, rms: ent.RMS, iters: ent.Iters, src: srcRemote}
	}
	if polys, rms, iters, ok := r.psess.Lookup(r.level.String(), key); ok {
		return classResult{polys: polys, rms: rms, iters: iters, src: srcLibExact}
	}
	if r.psess != nil {
		active, halo := g.canonical()
		if sr, ok := r.psess.Similar(r.level.String(), r.tile, active, halo); ok {
			return classResult{polys: sr.Polys, rms: sr.RMS, iters: sr.Iters, src: srcLibSimilar}
		}
	}
	core, active, halo := g.core, g.active, g.halo
	if g.members > 1 {
		core = core.Translate(g.toCanon())
		active, halo = g.canonical()
	}
	// Everything is clipped to core + halo, so the window never exceeds
	// tile + 2*halo regardless of how long the original wires are.
	mWorkersBusy.Add(1)
	defer mWorkersBusy.Add(-1)
	tw.Emit(trace.SolveBegin, pass, g.core, g.members, 0, 0, "")
	tc0 := time.Now()
	cr := r.f.correctClass(r.ctx, r.level, active, halo, core, core.Grow(r.f.Ambit), tw, pass, g.core)
	mTileSeconds.Observe(time.Since(tc0).Seconds())
	return cr
}

// fold is stage 3 (serial, so stats and metrics are deterministic
// regardless of worker scheduling): place every class member by
// translating the class solution to its tile origin, and fold the class
// outcomes into the run statistics.
func (r *tileRun) fold(pass int, classes []*tileClass, classRes []classResult) {
	st := &r.st
	for ci, c := range classes {
		cr := classRes[ci]
		n := len(c.members)
		st.Retries += cr.retries
		st.Panics += cr.panics
		st.Timeouts += cr.timeouts
		mTileRetries.Add(int64(cr.retries))
		mTilePanics.Add(int64(cr.panics))
		mTileTimeouts.Add(int64(cr.timeouts))
		if rung := rungs[cr.src]; rung.tiles != nil {
			*rung.tiles(st) += n
			if rung.counter != nil {
				rung.counter.Add(int64(n))
			}
		} else {
			st.CorrectedTiles++
			mTilesCorrected.Inc()
			st.Iterations += cr.iters
			if cr.warmFrags > 0 && r.f.Prior != nil {
				st.WarmTiles++
				st.WarmFragments += cr.warmFrags
				st.PriorSavedIters += r.f.Prior.ObserveWarmRun(cr.iters)
			}
			if n > 1 {
				st.ReusedTiles += n - 1
				mTilesReused.Add(int64(n - 1))
				r.sched.Emit(trace.TileDedup, pass, r.jobs[c.rep].core, n-1, cr.iters, cr.rms, "")
			}
		}
		if cr.degraded != "" {
			if cr.degraded == degradeRules {
				st.DegradedRules += n
			} else {
				st.DegradedUncorrected += n
			}
			mTilesDegraded.Add(int64(n))
			st.Degradations = append(st.Degradations, TileDegradation{
				Pass: pass, Tile: r.jobs[c.rep].core, Members: n,
				Mode: cr.degraded, Err: cr.degErr,
			})
		}
		for _, i := range c.members {
			placed := cr.polys
			if n > 1 {
				placed = geom.TranslatePolygons(cr.polys, geom.Pt(r.jobs[i].core.X0, r.jobs[i].core.Y0))
			}
			r.results[i], r.tileRMS[i] = placed, cr.rms
		}
	}
}

// prepareNextPass builds the moved-geometry index for the dirty filter
// and makes the corrected layer the new context source.
func (r *tileRun) prepareNextPass() {
	r.movedIdx = geom.NewGridIndex(r.tile)
	n := int32(0)
	for i := range r.jobs {
		if sameSlice(r.results[i], r.xorBase[i]) {
			continue // clean reuse: nothing moved
		}
		moved := geom.RegionFromPolygons(r.results[i]...).
			Xor(geom.RegionFromPolygons(r.xorBase[i]...))
		for _, rect := range moved.Rects() {
			r.movedIdx.Insert(rect, n)
			n++
		}
		r.xorBase[i] = r.results[i]
	}
	r.ctxPolys = r.ctxPolys[:0:0]
	for i := range r.jobs {
		r.ctxPolys = append(r.ctxPolys, r.results[i]...)
	}
	r.ctxIdx = geom.NewGridIndex(r.tile)
	for i, p := range r.ctxPolys {
		r.ctxIdx.Insert(p.BBox(), int32(i))
	}
}

// Degradation-ladder modes.
const (
	degradeRules       = "rules"
	degradeUncorrected = "uncorrected"
)

// classResult is one tile class's outcome in one pass: the corrected
// polygons, the rung that produced them, and the resilience accounting
// the serial stage 3 folds into TileStats. A reuse rung's polygons are
// in the canonical frame; a local solve's are in the class's solve
// frame (classGeom) until the stage-2 epilogue places them.
type classResult struct {
	polys                     []geom.Polygon
	src                       provenance
	rms                       float64
	iters                     int
	warmFrags                 int
	retries, panics, timeouts int
	// degraded is "", degradeRules or degradeUncorrected; degErr the
	// model-path error that forced the fallback.
	degraded string
	degErr   string
	// err is fatal (run cancelled / checkpoint mismatch): it aborts
	// the run instead of engaging the degradation ladder.
	err error
}

// correctClass runs the resilience ladder for one tile class: up to
// 1+TileRetries panic-isolated, timeout-bounded model attempts with
// doubling backoff, then rule-based fallback, then uncorrected
// passthrough. Only run cancellation aborts; everything else degrades.
// tw is the worker's flight-recorder handle (nil-safe) and at the
// class representative's actual core, for the retry/timeout events.
func (f *Flow) correctClass(ctx context.Context, level Level, active, haloPolys []geom.Polygon, core, window geom.Rect, tw *trace.Worker, pass int, at geom.Rect) classResult {
	var cr classResult
	attempts := 1 + f.TileRetries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if cerr := ctx.Err(); cerr != nil {
			cr.err = cerr
			return cr
		}
		if a > 0 {
			cr.retries++
			detail := ""
			if lastErr != nil {
				detail = lastErr.Error()
			}
			tw.Emit(trace.TileRetry, pass, at, 1, 0, 0, detail)
			if !sleepBackoff(ctx, f.RetryBackoff<<(a-1)) {
				cr.err = ctx.Err()
				return cr
			}
		}
		res, conv, aerr, panicked := f.tileAttempt(ctx, level, active, haloPolys, core, window)
		if panicked {
			cr.panics++
		}
		if aerr == nil {
			cr.polys = res.Corrected
			cr.rms = conv.Final().RMS
			cr.iters = conv.Iterations
			cr.warmFrags = conv.WarmStarted
			return cr
		}
		if ctx.Err() != nil {
			// The whole run was cancelled, not just this attempt:
			// abort instead of degrading.
			cr.err = ctx.Err()
			return cr
		}
		if errors.Is(aerr, context.DeadlineExceeded) {
			cr.timeouts++
			tw.Emit(trace.TileTimeout, pass, at, 1, 0, 0, aerr.Error())
		}
		lastErr = aerr
	}
	// Degradation step 1: rule-based OPC. Pure geometry — no imaging —
	// so it survives most of what breaks the model path. The halo
	// context is dropped (rule biasing probes only within the active
	// geometry) and cut edges are not frozen; acceptable for a
	// fallback whose tiles are flagged for re-verification.
	if polys, rerr := f.rulesFallback(ctx, active); rerr == nil {
		cr.polys = polys
		cr.degraded = degradeRules
		cr.degErr = lastErr.Error()
		return cr
	} else if ctx.Err() != nil {
		cr.err = ctx.Err()
		return cr
	}
	// Degradation step 2: pass the drawn geometry through uncorrected.
	// The run completes; the tile must be caught by post-OPC
	// verification (the TileStats.Degradations record drives that).
	cr.polys = active
	cr.degraded = degradeUncorrected
	cr.degErr = lastErr.Error()
	return cr
}

// tileAttempt runs one panic-isolated, timeout-bounded engine attempt
// on a tile class, probing the "tile" fault site first.
func (f *Flow) tileAttempt(ctx context.Context, level Level, active, haloPolys []geom.Polygon, core, window geom.Rect) (res opc.Result, conv model.Convergence, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("tile worker panic: %v", r)
		}
	}()
	tctx := ctx
	if f.TileTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, f.TileTimeout)
		defer cancel()
	}
	if perr := f.FaultPlan.Probe(tctx, "tile"); perr != nil {
		return opc.Result{}, model.Convergence{}, perr, false
	}
	eng := model.New(f.Sim, f.Threshold)
	eng.Spec = f.Spec
	eng.MRC = f.MRC
	eng.Damping = f.Damping
	eng.RMSEps = f.ConvergeEps
	if level == L2 {
		eng.MaxIter = f.ModelIter1
	} else {
		eng.MaxIter = f.ModelIterFull
	}
	eng.Context = haloPolys
	freeze := core
	eng.FreezeBoundary = &freeze
	eng.Ctx = tctx
	if f.Prior != nil {
		// Signatures see the tile's drawn geometry plus its halo ring —
		// a fragment near the core boundary captures the same
		// environment it would in an untiled run.
		env := active
		if len(haloPolys) > 0 {
			env = append(append(make([]geom.Polygon, 0, len(active)+len(haloPolys)), active...), haloPolys...)
		}
		eng.InitialBias = f.Prior.InitialBias(env)
	}
	res, conv, err = eng.Correct(active, window)
	return res, conv, err, false
}

// rulesFallback applies rule-based OPC to a tile's active geometry,
// panic-isolated and fault-probed ("rules" site) like the model path.
func (f *Flow) rulesFallback(ctx context.Context, active []geom.Polygon) (polys []geom.Polygon, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rules fallback panic: %v", r)
		}
	}()
	if perr := f.FaultPlan.Probe(ctx, "rules"); perr != nil {
		return nil, perr
	}
	res, err := f.Rules.ApplyCtx(ctx, active)
	if err != nil {
		return nil, err
	}
	return res.Corrected, nil
}

// sleepBackoff sleeps for d honoring ctx; reports whether the sleep
// completed (false means the run was cancelled mid-backoff).
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sameSlice reports whether two polygon slices are the same slice (the
// clean-reuse case, where a tile's result was carried over unchanged).
func sameSlice(a, b []geom.Polygon) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ringDirty reports whether any moved rectangle overlaps the tile's
// halo ring (window minus core) with positive area. Movement fully
// inside the core is invisible to this tile: its context is clipped to
// the ring, and its own active geometry restarts from the drawn layer
// every pass.
func ringDirty(moved *geom.GridIndex, window, core geom.Rect) bool {
	dirty := false
	moved.Query(window, func(box geom.Rect, _ int32) bool {
		o := box.Intersect(window)
		if o.Empty() {
			return true
		}
		if o.X0 >= core.X0 && o.Y0 >= core.Y0 && o.X1 <= core.X1 && o.Y1 <= core.Y1 {
			return true
		}
		dirty = true
		return false
	})
	return dirty
}

// EstimateTiles counts the grid tiles a windowed correction of target
// at this tile size would consider non-empty, using bounding boxes
// only. It is a cheap upper bound on TileStats.Tiles (a box may touch a
// tile core without contributing clipped geometry) — the opcd server
// uses it for per-job tile-budget admission before any correction work
// is spent. Zero or negative tile sizes and empty targets count zero.
func EstimateTiles(target []geom.Polygon, tile geom.Coord) int {
	if len(target) == 0 || tile <= 0 {
		return 0
	}
	_, cores, _ := gridCores(target, tile)
	return len(cores)
}

// gridCores indexes the bounding boxes of target on a tile-size grid
// and walks the grid tiles over their union: cores are the tile cores
// some box touches, pruned the tiles the index proved empty.
func gridCores(target []geom.Polygon, tile geom.Coord) (idx *geom.GridIndex, cores []geom.Rect, pruned int) {
	idx = geom.NewGridIndex(tile)
	var bounds geom.Rect
	for i, p := range target {
		bb := p.BBox()
		idx.Insert(bb, int32(i))
		if i == 0 {
			bounds = bb
		} else {
			bounds = bounds.Union(bb)
		}
	}
	for y := bounds.Y0; y < bounds.Y1; y += tile {
		for x := bounds.X0; x < bounds.X1; x += tile {
			core := geom.Rect{X0: x, Y0: y, X1: x + tile, Y1: y + tile}
			if len(idx.CollectIDs(core)) == 0 {
				pruned++
				continue
			}
			cores = append(cores, core)
		}
	}
	return idx, cores, pruned
}

// clipToRegion gathers the polygons touching the query window and clips
// them to the region (fast-pathing polygons already inside it).
func clipToRegion(polys []geom.Polygon, idx *geom.GridIndex, query geom.Rect, clip geom.Region) []geom.Polygon {
	cb := clip.BBox()
	var out []geom.Polygon
	for _, id := range idx.CollectIDs(query) {
		p := polys[id]
		bb := p.BBox()
		if !bb.Touches(cb) {
			continue
		}
		// Fast path: fully inside a single-rect clip.
		if clip.Count() == 1 {
			r := clip.Rects()[0]
			if bb.X0 >= r.X0 && bb.Y0 >= r.Y0 && bb.X1 <= r.X1 && bb.Y1 <= r.Y1 {
				out = append(out, p)
				continue
			}
		}
		pieces := geom.RegionFromPolygons(p).Intersect(clip).Polygons()
		out = append(out, pieces...)
	}
	return out
}
