//go:build !race

// The allocation budgets count on pooled buffers coming back; under the
// race detector sync.Pool drops a quarter of all Puts on purpose, so
// this file is left out of -race builds.

package model

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"goopc/internal/geom"
	"goopc/internal/opc"
	"goopc/internal/optics"
)

// TestIterationAllocBudget pins the marginal cost of one model
// iteration: the images of an iteration are released when it ends, so
// a longer run reuses the same pooled buffers and each extra iteration
// allocates only geometry (the rebuilt mask, its rasterization
// bookkeeping) — a small fraction of one frame buffer, where it used to
// allocate a whole one per focus.
func TestIterationAllocBudget(t *testing.T) {
	e := fastEngine(t)
	e.Tol = 0 // never converge: the run takes exactly MaxIter steps
	e.FocusList = []float64{0, 300}
	target := []geom.Polygon{geom.R(-90, -1500, 90, 0).Polygon()}
	window := opc.WindowFor(target, 600)
	frame := optics.FrameFor(window, e.Sim.S.PixelNM, e.Sim.S.GuardNM)
	// No collection while measuring: one would empty the buffer pools
	// and charge the refill to whichever run came next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(iters int) float64 {
		e.MaxIter = iters
		run := func() {
			_, conv, err := e.Correct(target, window)
			if err != nil {
				t.Fatal(err)
			}
			if conv.Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", conv.Iterations, iters)
			}
		}
		run() // warm kernels, plans and pools
		// The median run, not the mean: a goroutine that moves to
		// another processor leaves its buffers in the old one's
		// private pool slot and allocates afresh once, which is the
		// scheduler's doing and not a per-iteration cost.
		const runs = 7
		per := make([]float64, runs)
		var m0, m1 runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&m0)
			run()
			runtime.ReadMemStats(&m1)
			per[i] = float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		sort.Float64s(per)
		return per[runs/2]
	}
	short, long := allocated(2), allocated(8)
	perIter := (long - short) / 6
	frameBytes := float64(frame.W * frame.H * 8)
	t.Logf("%.0f B per extra iteration at two foci (one frame buffer is %.0f B)", perIter, frameBytes)
	if perIter > frameBytes/4 {
		t.Errorf("%.0f B per extra iteration, budget %.0f (a quarter of one frame buffer)", perIter, frameBytes/4)
	}
}
