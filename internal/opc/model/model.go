// Package model implements model-based OPC: every polygon edge is
// dissected into fragments, each fragment carries a control site at its
// midpoint, and a damped fixed-point iteration moves each fragment along
// its normal to drive the simulated edge placement error to zero, under
// mask-rule constraints. This is the algorithm class of the first
// production model-based OPC tools whose adoption the reproduced paper
// describes.
package model

import (
	"context"
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/opc"
	"goopc/internal/optics"
	"goopc/internal/par"
	"goopc/internal/resist"
)

// Engine holds the correction configuration.
type Engine struct {
	// Sim is the imaging model; Threshold the calibrated resist
	// threshold.
	Sim       *optics.Simulator
	Threshold float64
	// Spec controls edge dissection.
	Spec geom.FragmentSpec
	// MaxIter bounds the feedback loop; Tol (nm) stops early when the
	// worst |EPE| falls below it.
	MaxIter int
	Tol     float64
	// RMSEps, when positive, stops the loop once the per-iteration EPE
	// RMS improvement drops below it: the fixed point has been reached
	// (or the loop has started oscillating, which only worsens the
	// result) and further iterations buy nothing. Zero keeps the full
	// MaxIter budget, reproducing the historical behavior.
	RMSEps float64
	// Damping scales the per-iteration correction step (0 < d <= 1).
	// Under-damping oscillates, over-damping converges slowly; the
	// convergence ablation (R-F4) sweeps this.
	Damping float64
	// MRC clamps the accumulated bias of every fragment.
	MRC opc.MRC
	// MaxSearch bounds the EPE contour search (nm).
	MaxSearch float64
	// SRAFs, when non-nil, are frozen assist features included in every
	// simulation but never moved.
	SRAFs []geom.Polygon
	// Context, when non-nil, are neighboring main features included in
	// every simulation as drawn but not corrected and not returned —
	// the halo geometry of tiled full-layer correction.
	Context []geom.Polygon
	// FreezeBoundary, when non-nil, locks every fragment whose edge
	// lies on the boundary of this rectangle: the artificial cut edges
	// introduced by clipping a layer into tiles. Frozen fragments are
	// never moved and never measured (their printed edge continues in
	// the neighboring tile).
	FreezeBoundary *geom.Rect
	// FocusList enables process-window OPC: when non-empty, each
	// iteration evaluates the EPE at every listed defocus (nm) and
	// corrects against the average — trading best-focus fidelity for
	// through-focus stability. Empty means best-focus-only correction.
	FocusList []float64
	// Ctx, when non-nil, bounds the correction: cancellation or
	// deadline expiry aborts the loop between iterations (and inside
	// the imaging engine between kernel evaluations) with the context
	// error. The tiled scheduler sets this to enforce per-tile
	// timeouts; nil means run to completion.
	Ctx context.Context
	// InitialBias, when non-nil, seeds fragment biases before the first
	// iteration (warm start): it is consulted once per non-frozen
	// fragment after dissection, and a true second return applies the
	// returned bias, clamped by MRC like every correction step. The
	// learned prior (internal/prior) plugs in here; a good prediction
	// puts iteration 0's measurement near the fixed point, so the loop
	// converges in fewer steps. Nil leaves every bias at zero — the
	// historical cold start — and the engine behaves bit-identically.
	InitialBias func(f geom.Fragment) (geom.Coord, bool)
}

// ctx returns the engine's context, defaulting to Background.
func (e *Engine) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// frozen reports whether a fragment lies on the freeze boundary.
func (e *Engine) frozen(f geom.Fragment) bool {
	if e.FreezeBoundary == nil {
		return false
	}
	b := *e.FreezeBoundary
	a, bp := f.Edge.A, f.Edge.B
	if a.X == bp.X { // vertical edge
		return a.X == b.X0 || a.X == b.X1
	}
	return a.Y == b.Y0 || a.Y == b.Y1
}

// New returns an engine with production-typical defaults: 8 iterations,
// 0.7 damping, 1.5 nm tolerance, default fragmentation and mask rules.
func New(sim *optics.Simulator, threshold float64) *Engine {
	return &Engine{
		Sim:       sim,
		Threshold: threshold,
		Spec:      geom.DefaultFragmentSpec(),
		MaxIter:   8,
		Tol:       1.5,
		Damping:   0.7,
		MRC:       opc.DefaultMRC(),
		MaxSearch: 400,
	}
}

// Convergence records the per-iteration EPE statistics of a correction
// run (index 0 is the uncorrected starting point).
type Convergence struct {
	PerIter []opc.EPEStats
	// Iterations is the number of correction steps actually taken.
	Iterations int
	// Converged is true when the loop hit Tol before MaxIter.
	Converged bool
	// EarlyExit is true when the RMS-improvement criterion (RMSEps)
	// ended the loop before MaxIter.
	EarlyExit bool
	// WarmStarted counts the fragments seeded by the InitialBias hook
	// before iteration 0 (zero for cold runs).
	WarmStarted int
	// WarmRestored is true when a warm-started run returned an earlier
	// iterate than its last: warmed runs keep the best-RMS measured
	// state, because one update step from an already-stalled seeded
	// state can oscillate away from the fixed point. Cold runs always
	// return the last iterate (bit-compatible with prior releases).
	// When set, PerIter's final entry repeats the restored iterate's
	// statistics so Final() describes the returned geometry.
	WarmRestored bool
}

// Final returns the EPE statistics after the last iteration.
func (c Convergence) Final() opc.EPEStats {
	if len(c.PerIter) == 0 {
		return opc.EPEStats{}
	}
	return c.PerIter[len(c.PerIter)-1]
}

// Correct runs the feedback loop on the drawn polygons. The returned
// result contains the corrected polygons (fragment jogs materialized)
// plus the engine's frozen SRAFs, and the convergence trace.
func (e *Engine) Correct(target []geom.Polygon, window geom.Rect) (opc.Result, Convergence, error) {
	res, conv, _, err := e.CorrectFragments(target, window)
	return res, conv, err
}

// CorrectFragments is Correct exposing the final fragment state: one
// fragment list per target polygon, in dissection order, each carrying
// its converged Bias. The dataset factory records per-fragment biases
// from this; everyone else uses Correct.
func (e *Engine) CorrectFragments(target []geom.Polygon, window geom.Rect) (opc.Result, Convergence, [][]geom.Fragment, error) {
	if e.Sim == nil {
		return opc.Result{}, Convergence{}, nil, fmt.Errorf("model: nil simulator")
	}
	if e.MaxIter < 1 {
		return opc.Result{}, Convergence{}, nil, fmt.Errorf("model: MaxIter %d", e.MaxIter)
	}
	if e.Damping <= 0 || e.Damping > 1.5 {
		return opc.Result{}, Convergence{}, nil, fmt.Errorf("model: damping %v out of range", e.Damping)
	}
	// Fragment every target polygon once; biases accumulate across
	// iterations.
	frags := make([][]geom.Fragment, len(target))
	for i, p := range target {
		frags[i] = geom.FragmentPolygon(p, i, e.Spec)
	}
	var conv Convergence
	if e.InitialBias != nil {
		// Warm start: seed predicted biases before the first
		// measurement, clamped exactly like an update step. Frozen
		// (cut-edge) fragments never move, warm or cold.
		for i := range frags {
			for j := range frags[i] {
				f := &frags[i][j]
				if e.frozen(*f) {
					continue
				}
				if b, ok := e.InitialBias(*f); ok {
					f.Bias = e.MRC.Clamp(b)
					conv.WarmStarted++
				}
			}
		}
	}
	var (
		bestFrags [][]geom.Fragment
		bestRMS   float64
		bestStats opc.EPEStats
	)
	extra := make([]geom.Polygon, 0, len(e.SRAFs)+len(e.Context))
	extra = append(extra, e.SRAFs...)
	extra = append(extra, e.Context...)
	foci := e.FocusList
	if len(foci) == 0 {
		foci = []float64{e.Sim.S.DefocusNM}
	}
	ctx := e.ctx()
	// An iteration's images are spent once the fragments have moved:
	// their buffers go back so the next iteration images into them.
	var images []*optics.Image
	release := func() {
		for _, im := range images {
			im.Release()
		}
		images = nil
	}
	defer release()
	for iter := 0; iter <= e.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return opc.Result{}, conv, nil, fmt.Errorf("model: iteration %d: %w", iter, err)
		}
		mask := e.rebuild(frags)
		full := append(mask, extra...)
		release()
		var err error
		images, err = e.imageFoci(ctx, full, window, foci)
		if err != nil {
			return opc.Result{}, conv, nil, fmt.Errorf("model: iteration %d imaging: %w", iter, err)
		}
		stats, worst := e.measure(images, frags)
		mEPERMS.Observe(stats.RMS)
		conv.PerIter = append(conv.PerIter, stats)
		if conv.WarmStarted > 0 && (bestFrags == nil || stats.RMS < bestRMS) {
			// Warmed runs keep the best measured iterate (see
			// Convergence.WarmRestored); the copy is fragment values
			// only, cheap next to an imaging pass.
			bestRMS, bestStats, bestFrags = stats.RMS, stats, copyFrags(frags)
		}
		if worst <= e.Tol {
			conv.Converged = true
			break
		}
		if e.RMSEps > 0 && len(conv.PerIter) >= 2 {
			prev := conv.PerIter[len(conv.PerIter)-2]
			if prev.RMS-stats.RMS < e.RMSEps {
				conv.EarlyExit = true
				break
			}
		}
		if iter == e.MaxIter {
			break
		}
		e.update(images, frags)
		conv.Iterations++
	}
	mRuns.Inc()
	mIterations.Observe(float64(conv.Iterations))
	if conv.Converged {
		mConverged.Inc()
	}
	if conv.EarlyExit {
		mEarlyExit.Inc()
	}
	if conv.WarmStarted > 0 {
		mWarmRuns.Inc()
		mWarmFragments.Add(int64(conv.WarmStarted))
	}
	if bestFrags != nil && bestRMS < conv.Final().RMS {
		frags = bestFrags
		conv.PerIter = append(conv.PerIter, bestStats)
		conv.WarmRestored = true
	}
	return opc.Result{Corrected: e.rebuild(frags), SRAFs: e.SRAFs}, conv, frags, nil
}

// copyFrags deep-copies the per-polygon fragment lists (fragments are
// plain values).
func copyFrags(frags [][]geom.Fragment) [][]geom.Fragment {
	out := make([][]geom.Fragment, len(frags))
	for i, fl := range frags {
		out[i] = append([]geom.Fragment(nil), fl...)
	}
	return out
}

// imageFoci computes one aerial image per focus. Process-window OPC on
// a parallel simulator evaluates the foci concurrently as far as the
// compute budget allows (the simulator is safe for concurrent use and
// its kernel cache is shared); images land at their focus index, so the
// result is order-deterministic.
func (e *Engine) imageFoci(ctx context.Context, mask []geom.Polygon, window geom.Rect, foci []float64) ([]*optics.Image, error) {
	images := make([]*optics.Image, len(foci))
	errs := make([]error, len(foci))
	image := func(_, i int) {
		images[i], errs[i] = e.Sim.AerialDefocusCtx(ctx, mask, window, foci[i])
	}
	if e.Sim.S.Parallel {
		par.Each(len(foci), image)
	} else {
		for i := range foci {
			image(0, i)
		}
	}
	for _, err := range errs {
		if err != nil {
			for _, im := range images {
				if im != nil {
					im.Release()
				}
			}
			return nil, err
		}
	}
	return images, nil
}

// rebuild materializes the current fragment biases into polygons.
func (e *Engine) rebuild(frags [][]geom.Fragment) []geom.Polygon {
	out := make([]geom.Polygon, 0, len(frags))
	for _, fs := range frags {
		p := geom.RebuildPolygon(fs)
		if len(p) >= 4 {
			out = append(out, p)
		}
	}
	return out
}

// measure evaluates the signed EPE at every control site against the
// image set (averaged over foci for process-window OPC) and returns
// aggregate statistics plus the worst |EPE|. Control sites sit at the
// *drawn* fragment midpoints: OPC drives the printed contour to the
// drawn edge, wherever the mask edge has moved.
func (e *Engine) measure(images []*optics.Image, frags [][]geom.Fragment) (opc.EPEStats, float64) {
	var st opc.EPEStats
	var sumAbs, sumSq, sumSigned float64
	worst := 0.0
	for _, fs := range frags {
		for _, f := range fs {
			if e.frozen(f) {
				continue
			}
			st.Sites++
			epe, err := e.siteEPE(images, f)
			if err != nil {
				st.Unresolved++
				// Unresolved sites count as worst-case so the loop keeps
				// working on them.
				worst = math.Max(worst, e.MaxSearch)
				continue
			}
			a := math.Abs(epe)
			sumAbs += a
			sumSq += epe * epe
			sumSigned += epe
			if a > st.Max {
				st.Max = a
			}
			worst = math.Max(worst, a)
		}
	}
	resolved := st.Sites - st.Unresolved
	if resolved > 0 {
		st.MeanAbs = sumAbs / float64(resolved)
		st.RMS = math.Sqrt(sumSq / float64(resolved))
		st.MeanSigned = sumSigned / float64(resolved)
	}
	return st, worst
}

// siteEPE averages the signed EPE over the image set. A site is
// unresolved only when it resolves in no image; resolving in at least
// one focus keeps the feedback alive (the average then reflects the
// conditions that still print).
func (e *Engine) siteEPE(images []*optics.Image, f geom.Fragment) (float64, error) {
	mid := f.Edge.Mid()
	n := f.Edge.Normal()
	var sum float64
	ok := 0
	var lastErr error
	for _, im := range images {
		epe, err := resist.EPE(im, e.Threshold, float64(mid.X), float64(mid.Y),
			float64(n.X), float64(n.Y), e.MaxSearch)
		if err != nil {
			lastErr = err
			continue
		}
		sum += epe
		ok++
	}
	if ok == 0 {
		return 0, lastErr
	}
	return sum / float64(ok), nil
}

// update applies one damped feedback step: a positive EPE (printed
// feature beyond the drawn edge) retracts the mask edge, and vice
// versa. Unresolved sites take a fixed probing step outward, which
// recovers pinched-off features.
func (e *Engine) update(images []*optics.Image, frags [][]geom.Fragment) {
	for _, fs := range frags {
		for i := range fs {
			f := &fs[i]
			if e.frozen(*f) {
				continue
			}
			epe, err := e.siteEPE(images, *f)
			var step geom.Coord
			if err != nil {
				// No contour found: the feature likely failed to print
				// at this site; push the mask edge outward to recover.
				step = 4
			} else {
				step = geom.Coord(math.Round(-e.Damping * epe))
			}
			f.Bias = e.MRC.Clamp(f.Bias + step)
		}
	}
}
