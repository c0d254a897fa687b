package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"goopc/internal/geom"
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
	// KernelHits and KernelMisses are the simulator kernel-cache
	// statistics accumulated during this run.
	KernelHits, KernelMisses int64
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
//     intersects geometry that moved in pass 1 (beyond Flow.DirtyEps).
//     With DirtyEps zero the skip is exact: a clean tile's context is
//     area-identical across passes, so re-correction would reproduce
//     its pass-1 result.
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
	st.Polygons = len(target)
	halo := f.Ambit
	passes := f.TilePasses
	if passes < 1 {
		passes = 2
	}
	if level == L2 {
		// Single-iteration correction moves edges too little for
		// context double-counting to matter; one pass.
		passes = 1
	}
	st.Passes = passes

	// Cross-run pattern library (DESIGN.md 5f). A shared Flow.PatLib
	// (the opcd server's) takes precedence; otherwise PatternLibPath
	// opens a run-scoped library. An incompatible fingerprint yields a
	// nil session — every rung then misses and the run solves normally.
	plib := f.PatLib
	if plib == nil && f.PatternLibPath != "" {
		owned, perr := patlib.Open(f.PatternLibPath, f.PatLibReadOnly)
		if perr != nil {
			return opc.Result{}, st, fmt.Errorf("core: pattern library %s: %w", f.PatternLibPath, perr)
		}
		defer owned.Close()
		plib = owned
	}
	var psess *patlib.Session
	if plib != nil {
		psess = plib.Session(f.patlibFingerprint(tile))
	}

	// Checkpoint/resume setup. The fingerprint ties artifacts to this
	// exact (target, level, settings) combination. needCanon gates the
	// canonical-key serialization (dedup or checkpoint), needHash the
	// fixed-size digest checkpoint storage and the pattern library use.
	var ckpt *ckptWriter
	needHash := f.CheckpointPath != "" || f.Resume != nil || psess != nil || f.ClassSolver != nil
	needCanon := !f.DisableDedup || needHash
	if needHash {
		fp := f.runFingerprint(target, level, tile, passes)
		seed := f.Resume
		if seed != nil && seed.Fingerprint != fp {
			return opc.Result{}, st, fmt.Errorf("core: checkpoint fingerprint %.12s.. does not match run %.12s.. (different target or settings): %w",
				seed.Fingerprint, fp, ErrCheckpointMismatch)
		}
		if seed == nil {
			seed = NewCheckpoint(fp, level.String(), tile)
		}
		ckpt = newCkptWriter(seed, f.CheckpointPath, f.CheckpointEvery, f.Tracer)
		// Final flush on every exit path — success, failure, SIGINT —
		// so completed work always survives the process.
		defer func() {
			if ferr := ckpt.flush(); ferr != nil && retErr == nil {
				retErr = ferr
			}
		}()
	}

	idx := geom.NewGridIndex(tile)
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

	// Tile enumeration with empty-tile pruning: the index proves most
	// empty tiles empty from bounding boxes alone; the clip catches
	// boxes that touch a core without contributing geometry.
	var jobs []tileJob
	for y := bounds.Y0; y < bounds.Y1; y += tile {
		for x := bounds.X0; x < bounds.X1; x += tile {
			core := geom.Rect{X0: x, Y0: y, X1: x + tile, Y1: y + tile}
			if len(idx.CollectIDs(core)) == 0 {
				st.EmptyPruned++
				continue
			}
			active := clipToRegion(target, idx, core, geom.RegionFromRects(core))
			if len(active) == 0 {
				st.EmptyPruned++
				continue
			}
			jobs = append(jobs, tileJob{core: core, active: active})
		}
	}
	st.Tiles = len(jobs)
	if len(jobs) == 0 {
		return opc.Result{}, st, fmt.Errorf("core: no tiles contain geometry")
	}
	mRuns.Inc()
	mTilesScheduled.Add(int64(len(jobs)))
	mTilesEmptyPruned.Add(int64(st.EmptyPruned))

	// Flight recorder (DESIGN.md 5h). The scheduler's serial stages emit
	// on worker 0; each pool goroutine emits on its own ring. A nil
	// Flow.Tracer yields nil handles and every Emit below is a no-op.
	sched := f.Tracer.Worker(0)

	kh0, km0 := f.Sim.KernelCacheStats()
	t0 := time.Now()

	// Per-tile state carried across passes.
	results := make([][]geom.Polygon, len(jobs))
	tileRMS := make([]float64, len(jobs))
	// xorBase is what each tile's result is diffed against to find
	// moved geometry: the drawn active before pass 1, the previous
	// pass's result afterwards.
	xorBase := make([][]geom.Polygon, len(jobs))
	for i := range jobs {
		xorBase[i] = jobs[i].active
	}
	var movedIdx *geom.GridIndex

	// Per-run tile progress, mirrored to Flow.Progress subscribers (the
	// global goopc_tiles_done gauge stays process-wide).
	var doneTiles atomic.Int64
	progress := func(pass, add int) {
		if add > 0 {
			doneTiles.Add(int64(add))
		}
		if f.Progress != nil {
			f.Progress(ProgressEvent{
				Pass: pass, Passes: passes,
				DoneTiles: int(doneTiles.Load()), TotalTiles: len(jobs),
			})
		}
	}

	// Context source: the drawn layer on pass 1, the previous pass's
	// corrected layer afterwards.
	ctxPolys := target
	ctxIdx := idx
	for pass := 1; pass <= passes; pass++ {
		if cerr := ctx.Err(); cerr != nil {
			st.Seconds = time.Since(t0).Seconds()
			return opc.Result{}, st, fmt.Errorf("core: pass %d: %w", pass, cerr)
		}
		passSpan := f.Span.Start(fmt.Sprintf("tile-pass-%d", pass))
		mPasses.Inc()
		mTilesTotal.Set(float64(len(jobs)))
		mTilesDone.Set(0)
		doneTiles.Store(0)
		progress(pass, 0)
		// Stage 1 (serial, cheap): dirty filtering and dedup classing.
		// A class groups tiles whose active+context geometry is
		// identical after translating each tile origin to (0,0); the
		// representative is the lowest job index, so classing is
		// deterministic and independent of worker scheduling. The dedup
		// map uses the exact canonical encoding (no collisions); the
		// checkpoint key is its fixed-size hash.
		type tileClass struct {
			rep     int
			members []int
			key     string
		}
		var classes []*tileClass
		classOf := map[string]int{}
		contexts := make([][]geom.Polygon, len(jobs))
		var keyBuf []byte
		for i := range jobs {
			core := jobs[i].core
			window := core.Grow(halo)
			sched.Emit(trace.TileScheduled, pass, core, 1, 0, 0, "")
			if pass > 1 && !f.DisableDirtySkip && !ringDirty(movedIdx, window, core) {
				// Context unchanged within the halo: the engine would
				// reproduce the previous pass's result. Keep it.
				sched.Emit(trace.TileCleanSkip, pass, core, 1, 0, 0, "")
				st.CleanTiles++
				mTilesClean.Inc()
				mTilesDone.Add(1)
				progress(pass, 1)
				continue
			}
			ring := geom.RegionFromRects(window).Subtract(geom.RegionFromRects(core))
			contexts[i] = clipToRegion(ctxPolys, ctxIdx, window, ring)
			var key string
			if needCanon {
				origin := geom.Pt(core.X0, core.Y0)
				keyBuf = keyBuf[:0]
				keyBuf = geom.AppendCanonicalPolygons(keyBuf, jobs[i].active, origin)
				keyBuf = geom.AppendCanonicalPolygons(keyBuf, contexts[i], origin)
				if needHash {
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

		// Distribution seam (DESIGN.md 5i): classes the resume checkpoint
		// does not already cover are offered to the external class solver
		// — the cluster coordinator — in canonical frame before the local
		// pool runs. The solver is best-effort: any class it does not
		// return falls through to the local ladder below, so a degenerate
		// cluster costs nothing beyond this call.
		var remote map[string]CheckpointEntry
		if f.ClassSolver != nil && ctx.Err() == nil {
			reqs := make([]ClassSolveRequest, 0, len(classes))
			for _, c := range classes {
				if _, ok := ckptLookup(ckpt, pass, c.key); ok {
					continue
				}
				j := jobs[c.rep]
				shift := geom.Pt(-j.core.X0, -j.core.Y0)
				reqs = append(reqs, ClassSolveRequest{
					Pass:   pass,
					Key:    c.key,
					Core:   j.core.Translate(shift),
					Active: geom.TranslatePolygons(j.active, shift),
					Halo:   geom.TranslatePolygons(contexts[c.rep], shift),
				})
			}
			if len(reqs) > 0 {
				remote = f.ClassSolver(ctx, level, tile, reqs)
			}
		}

		// Stage 2 (parallel): correct one representative per class.
		// Multi-member classes correct at the canonical origin so every
		// placement receives the identical solution; singletons correct
		// in place. Each class runs through the resilience ladder
		// (retries, then rule-based and uncorrected fallbacks) inside
		// correctClass, or is restored from the resume checkpoint.
		classRes := make([]classResult, len(classes))
		var mu sync.Mutex
		var firstErr error
		// One call per class, each on whichever goroutine the compute
		// budget has for it: the caller plus up to one extra per spare
		// core. A pass that holds every core makes the imaging fan-outs
		// underneath run inline; as its tail drains they fan out again.
		solve := func(worker, ci int) {
			// Worker 0 is the coordinator's ring; solving goroutines
			// record on rings 1 and up.
			tw := f.Tracer.Worker(int32(worker) + 1)
			c := classes[ci]
			if cerr := ctx.Err(); cerr != nil {
				// Run cancelled: drain the queue without working.
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: pass %d: %w", pass, cerr)
				}
				mu.Unlock()
				return
			}
			j := jobs[c.rep]
			core := j.core
			active := j.active
			haloPolys := contexts[c.rep]
			canonical := len(c.members) > 1
			origin := geom.Pt(core.X0, core.Y0)
			if canonical {
				// Canonical placement: tile origin at (0,0).
				shift := geom.Pt(-core.X0, -core.Y0)
				core = core.Translate(shift)
				active = geom.TranslatePolygons(active, shift)
				haloPolys = geom.TranslatePolygons(haloPolys, shift)
			}
			if ent, ok := ckptLookup(ckpt, pass, c.key); ok {
				// Finished in a previous (checkpointed) run:
				// restore instead of correcting. Entries are
				// canonical; singletons translate back in place.
				tw.Emit(trace.TileResumed, pass, j.core, len(c.members), ent.Iters, ent.RMS, "")
				cr := classResult{rms: ent.RMS, iters: ent.Iters, resumed: true}
				if canonical {
					cr.polys = ent.Polys
				} else {
					cr.polys = geom.TranslatePolygons(ent.Polys, origin)
				}
				classRes[ci] = cr
				mTilesDone.Add(float64(len(c.members)))
				progress(pass, len(c.members))
				return
			}
			if ent, ok := remote[c.key]; ok {
				// Solved by a cluster worker: entries arrive in the
				// canonical checkpoint format, so folding one is the
				// resume path with a different source. Remote entries
				// are always clean engine solutions (workers report
				// degraded classes as unsolved), so they are
				// checkpoint and library material like a local solve.
				tw.Emit(trace.TileRemote, pass, j.core, len(c.members), ent.Iters, ent.RMS, "")
				cr := classResult{rms: ent.RMS, iters: ent.Iters, remote: true}
				if canonical {
					cr.polys = ent.Polys
				} else {
					cr.polys = geom.TranslatePolygons(ent.Polys, origin)
				}
				classRes[ci] = cr
				if psess != nil {
					cActive, cHalo := active, haloPolys
					if !canonical {
						shift := geom.Pt(-core.X0, -core.Y0)
						cActive = geom.TranslatePolygons(active, shift)
						cHalo = geom.TranslatePolygons(haloPolys, shift)
					}
					psess.Append(level.String(), c.key, tile, cActive, cHalo, ent.Polys, ent.RMS, ent.Iters)
				}
				if ckpt != nil {
					if err := ckpt.add(pass, c.key, ent); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
				mTilesDone.Add(float64(len(c.members)))
				progress(pass, len(c.members))
				return
			}
			if polys, rms, iters, ok := psess.Lookup(level.String(), c.key); ok {
				// Cross-run exact hit: the library stores canonical
				// (frame-origin) solutions under the same contract
				// as a checkpoint entry, so reuse is bit-identical.
				tw.Emit(trace.TileLibExact, pass, j.core, len(c.members), iters, rms, "")
				cr := classResult{rms: rms, iters: iters, libExact: true}
				if canonical {
					cr.polys = polys
				} else {
					cr.polys = geom.TranslatePolygons(polys, origin)
				}
				classRes[ci] = cr
				if ckpt != nil {
					if err := ckpt.add(pass, c.key, CheckpointEntry{Polys: polys, RMS: rms, Iters: iters}); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
				mTilesDone.Add(float64(len(c.members)))
				progress(pass, len(c.members))
				return
			}
			// Canonical (frame-origin) geometry for the library's
			// similarity probe and the post-solve append; classes
			// with multiple members are already canonical.
			cActive, cHalo := active, haloPolys
			if psess != nil && !canonical {
				shift := geom.Pt(-core.X0, -core.Y0)
				cActive = geom.TranslatePolygons(active, shift)
				cHalo = geom.TranslatePolygons(haloPolys, shift)
			}
			if sr, ok := psess.Similar(level.String(), tile, cActive, cHalo); ok {
				// Similarity hit: a stored solution matched under a
				// frame-preserving orientation and passed the
				// halo-validity check. The carried solution is
				// engine-equivalent within ConvergeEps, not
				// bit-identical — fragmentation is not orientation-
				// covariant — so it is accounted separately.
				tw.Emit(trace.TileLibSimilar, pass, j.core, len(c.members), sr.Iters, sr.RMS, "")
				cr := classResult{rms: sr.RMS, iters: sr.Iters, libSimilar: true}
				if canonical {
					cr.polys = sr.Polys
				} else {
					cr.polys = geom.TranslatePolygons(sr.Polys, origin)
				}
				classRes[ci] = cr
				if ckpt != nil {
					if err := ckpt.add(pass, c.key, CheckpointEntry{Polys: sr.Polys, RMS: sr.RMS, Iters: sr.Iters}); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
				mTilesDone.Add(float64(len(c.members)))
				progress(pass, len(c.members))
				return
			}
			window := core.Grow(halo)
			// Everything is clipped to core + halo, so the window
			// never exceeds tile + 2*halo regardless of how long
			// the original wires are.
			mWorkersBusy.Add(1)
			tw.Emit(trace.SolveBegin, pass, j.core, len(c.members), 0, 0, "")
			tc0 := time.Now()
			cr := f.correctClass(ctx, level, active, haloPolys, core, window, tw, pass, j.core)
			mTileSeconds.Observe(time.Since(tc0).Seconds())
			solveDetail := cr.degraded
			if cr.err != nil {
				solveDetail = "aborted: " + cr.err.Error()
			}
			tw.Emit(trace.SolveEnd, pass, j.core, len(c.members), cr.iters, cr.rms, solveDetail)
			if cr.degraded != "" {
				tw.Emit(trace.TileDegrade, pass, j.core, len(c.members), 0, 0, cr.degraded+": "+cr.degErr)
			}
			mWorkersBusy.Add(-1)
			mTilesDone.Add(float64(len(c.members)))
			progress(pass, len(c.members))
			if cr.err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: pass %d tile %v: %w", pass, jobs[c.rep].core, cr.err)
				}
				mu.Unlock()
				return
			}
			classRes[ci] = cr
			if (ckpt != nil || psess != nil) && cr.degraded == "" {
				// Persist the canonical solution — to the checkpoint
				// for resume, and to the pattern library for future
				// runs. Degraded results are skipped on purpose: a
				// resume re-attempts them, so fault-free resumes
				// reproduce the fault-free output, and the library
				// never serves a fallback as a solution. Similarity-
				// derived results never reach here, so the library
				// only ever holds engine-solved patterns (no
				// derived-from-derived drift).
				canonPolys := cr.polys
				if !canonical {
					canonPolys = geom.TranslatePolygons(cr.polys, geom.Pt(-origin.X, -origin.Y))
				}
				psess.Append(level.String(), c.key, tile, cActive, cHalo, canonPolys, cr.rms, cr.iters)
				if ckpt != nil {
					err := ckpt.add(pass, c.key, CheckpointEntry{Polys: canonPolys, RMS: cr.rms, Iters: cr.iters})
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}
		}
		if parallel {
			par.Each(len(classes), solve)
		} else {
			for ci := range classes {
				solve(0, ci)
			}
		}
		if firstErr != nil {
			passSpan.End()
			st.Seconds = time.Since(t0).Seconds()
			return opc.Result{}, st, firstErr
		}

		// Stage 3 (serial): place every class member by translating the
		// canonical solution to its tile origin, and fold the class
		// outcomes into the run statistics (serial, so stats and
		// metrics are deterministic regardless of worker scheduling).
		for ci, c := range classes {
			cr := classRes[ci]
			st.Retries += cr.retries
			st.Panics += cr.panics
			st.Timeouts += cr.timeouts
			if cr.retries > 0 {
				mTileRetries.Add(int64(cr.retries))
			}
			if cr.panics > 0 {
				mTilePanics.Add(int64(cr.panics))
			}
			if cr.timeouts > 0 {
				mTileTimeouts.Add(int64(cr.timeouts))
			}
			if cr.resumed {
				st.ResumedTiles += len(c.members)
				mTilesResumed.Add(int64(len(c.members)))
			} else if cr.remote {
				st.RemoteTiles += len(c.members)
				mTilesRemote.Add(int64(len(c.members)))
			} else if cr.libExact {
				st.LibExactTiles += len(c.members)
			} else if cr.libSimilar {
				st.LibSimilarTiles += len(c.members)
			} else {
				st.CorrectedTiles++
				mTilesCorrected.Inc()
				st.Iterations += cr.iters
				if cr.warmFrags > 0 && f.Prior != nil {
					st.WarmTiles++
					st.WarmFragments += cr.warmFrags
					st.PriorSavedIters += f.Prior.ObserveWarmRun(cr.iters)
				}
				if len(c.members) > 1 {
					st.ReusedTiles += len(c.members) - 1
					mTilesReused.Add(int64(len(c.members) - 1))
					sched.Emit(trace.TileDedup, pass, jobs[c.rep].core, len(c.members)-1, cr.iters, cr.rms, "")
				}
			}
			switch cr.degraded {
			case degradeRules:
				st.DegradedRules += len(c.members)
			case degradeUncorrected:
				st.DegradedUncorrected += len(c.members)
			}
			if cr.degraded != "" {
				mTilesDegraded.Add(int64(len(c.members)))
				st.Degradations = append(st.Degradations, TileDegradation{
					Pass: pass, Tile: jobs[c.rep].core, Members: len(c.members),
					Mode: cr.degraded, Err: cr.degErr,
				})
			}
			if len(c.members) == 1 {
				i := c.rep
				results[i] = cr.polys
				tileRMS[i] = cr.rms
				continue
			}
			for _, i := range c.members {
				origin := geom.Pt(jobs[i].core.X0, jobs[i].core.Y0)
				results[i] = geom.TranslatePolygons(cr.polys, origin)
				tileRMS[i] = cr.rms
			}
		}

		// Prepare the next pass: moved-geometry index for the dirty
		// filter, and the corrected layer as the new context source.
		if pass < passes {
			movedIdx = geom.NewGridIndex(tile)
			n := int32(0)
			for i := range jobs {
				if sameSlice(results[i], xorBase[i]) {
					continue // clean reuse: nothing moved
				}
				moved := geom.RegionFromPolygons(results[i]...).
					Xor(geom.RegionFromPolygons(xorBase[i]...))
				for _, r := range moved.Rects() {
					// DirtyEps is the stitching tolerance: an edge that
					// moved by no more than eps (an XOR sliver thinner
					// than eps) is not propagated as dirty-making.
					if f.DirtyEps > 0 && (r.W() <= f.DirtyEps || r.H() <= f.DirtyEps) {
						continue
					}
					movedIdx.Insert(r, n)
					n++
				}
				xorBase[i] = results[i]
			}
			ctxPolys = ctxPolys[:0:0]
			for i := range jobs {
				ctxPolys = append(ctxPolys, results[i]...)
			}
			ctxIdx = geom.NewGridIndex(tile)
			for i, p := range ctxPolys {
				ctxIdx.Insert(p.BBox(), int32(i))
			}
		}
		passSpan.End()
	}

	var out opc.Result
	for i := range jobs {
		out.Corrected = append(out.Corrected, results[i]...)
	}
	st.WorstRMS = 0
	for _, rms := range tileRMS {
		if rms > st.WorstRMS {
			st.WorstRMS = rms
		}
	}
	if psess != nil {
		// Per-tile hit accounting folded in stage 3; the session-level
		// probe counters land here once per run.
		st.LibHaloRejects = int(psess.HaloRejects.Load())
		st.LibMisses = int(psess.Misses.Load())
		st.LibAppends = int(psess.Appends.Load())
	}
	kh1, km1 := f.Sim.KernelCacheStats()
	st.KernelHits, st.KernelMisses = kh1-kh0, km1-km0
	st.Seconds = time.Since(t0).Seconds()
	st.Corrected = len(out.Corrected)
	return out, st, nil
}

// Degradation-ladder modes.
const (
	degradeRules       = "rules"
	degradeUncorrected = "uncorrected"
)

// classResult is one tile class's outcome in one pass: the corrected
// polygons plus the resilience accounting the serial stage 3 folds into
// TileStats.
type classResult struct {
	polys                     []geom.Polygon
	rms                       float64
	iters                     int
	warmFrags                 int
	retries, panics, timeouts int
	// degraded is "", degradeRules or degradeUncorrected; degErr the
	// model-path error that forced the fallback.
	degraded string
	degErr   string
	// resumed marks a result restored from a checkpoint; remote one
	// solved by a cluster worker; libExact and libSimilar mark results
	// served from the cross-run pattern library.
	resumed              bool
	remote               bool
	libExact, libSimilar bool
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

// ckptLookup consults the (resume-seeded) checkpoint for a finished
// class result.
func ckptLookup(w *ckptWriter, pass int, key string) (CheckpointEntry, bool) {
	if w == nil || key == "" {
		return CheckpointEntry{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ck.lookup(pass, key)
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
	idx := geom.NewGridIndex(tile)
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
	n := 0
	for y := bounds.Y0; y < bounds.Y1; y += tile {
		for x := bounds.X0; x < bounds.X1; x += tile {
			if len(idx.CollectIDs(geom.Rect{X0: x, Y0: y, X1: x + tile, Y1: y + tile})) > 0 {
				n++
			}
		}
	}
	return n
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
