package core

import (
	"context"

	"goopc/internal/geom"
)

// ClassSolveRequest is one canonical tile class offered to an external
// solver (DESIGN.md 5i): the class key, the core rectangle and the
// active + halo-context geometry, all translated into the canonical
// frame (tile origin at (0,0)) — exactly the frame deduplicated
// classes solve in and checkpoint entries are stored in, so a remote
// solution is a CheckpointEntry and folds through the resume path.
type ClassSolveRequest struct {
	// Pass is the context pass the class belongs to; Key its
	// fixed-size canonical class-key hash (the checkpoint key).
	Pass int       `json:"pass"`
	Key  string    `json:"key"`
	Core geom.Rect `json:"core"`
	// Active is the geometry under correction clipped to the core;
	// Halo the frozen context ring around it.
	Active []geom.Polygon `json:"active"`
	Halo   []geom.Polygon `json:"halo,omitempty"`
}

// ClassSolver solves tile classes out of process. The scheduler calls
// it once per pass with every class the resume checkpoint did not
// already cover; the returned map holds whatever the solver managed to
// solve cleanly, keyed by class key. The contract is best-effort:
// missing keys (solver degraded, workers died, no cluster at all) fall
// through to the local solve path, so a solver may return a partial
// map or nil and the run still completes with identical output. Clean
// entries only — a solver must never return degraded results, because
// folded entries are checkpointed and the checkpoint invariant is that
// fault-free resumes reproduce the fault-free answer.
type ClassSolver func(ctx context.Context, level Level, tile geom.Coord, reqs []ClassSolveRequest) map[string]CheckpointEntry

// SolveClass runs one canonical tile class through the same resilience
// ladder (retries, timeout, panic isolation — rule-based and
// uncorrected fallbacks) the tiled scheduler applies locally. It is
// the cluster worker's execution path: the coordinator ships
// ClassSolveRequests, the worker calls SolveClass on a flow calibrated
// from the same spec, and the entry comes back in checkpoint format.
// degraded is "" for a clean solve, otherwise the ladder mode
// ("rules" / "uncorrected") — degraded results must be reported as
// unsolved, never folded. A non-nil error means the solve was
// cancelled, not that the class failed.
func (f *Flow) SolveClass(ctx context.Context, level Level, req ClassSolveRequest) (CheckpointEntry, string, error) {
	window := req.Core.Grow(f.Ambit)
	cr := f.correctClass(ctx, level, req.Active, req.Halo, req.Core, window, f.Tracer.Worker(0), req.Pass, req.Core)
	if cr.err != nil {
		return CheckpointEntry{}, "", cr.err
	}
	return CheckpointEntry{Polys: cr.polys, RMS: cr.rms, Iters: cr.iters}, cr.degraded, nil
}
