//go:build !race

// The allocation budgets count on pooled buffers coming back; under the
// race detector sync.Pool drops a quarter of all Puts on purpose, so
// this file is left out of -race builds.

package optics

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"goopc/internal/geom"
)

// TestWarmAerialAllocBudget pins the steady-state cost of the imaging
// loop: with kernels, plans and pools warm, an Aerial + Release cycle
// allocates nothing that scales with the frame — no image buffer, no
// field grid, no per-kernel part. What remains is the rasterizer's
// region bookkeeping and a few dozen slice headers.
func TestWarmAerialAllocBudget(t *testing.T) {
	// No collection while measuring: one would empty the buffer pools
	// and charge the refill to the cycles being counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, parallel := range []bool{false, true} {
		s := fastSettings()
		s.Parallel = parallel
		sim, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		mask := parityMask()
		window := geom.R(-800, -400, 800, 400)
		frame := FrameFor(window, s.PixelNM, s.GuardNM)
		cycle := func() {
			im, err := sim.Aerial(mask, window)
			if err != nil {
				t.Fatal(err)
			}
			im.Release()
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		// Bytes first, at the ambient GOMAXPROCS (so a parallel
		// simulator really fans out): AllocsPerRun switches to one
		// core, and a GOMAXPROCS change empties every sync.Pool.
		// The median cycle, not the mean: a goroutine that moves to
		// another processor leaves its buffers in the old one's
		// private pool slot and allocates afresh once, which is the
		// scheduler's doing and not a per-image cost.
		const runs = 41
		per := make([]float64, runs)
		var m0, m1 runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&m0)
			cycle()
			runtime.ReadMemStats(&m1)
			per[i] = float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		sort.Float64s(per)
		perCycle := per[runs/2]
		allocs := testing.AllocsPerRun(runs, cycle)
		frameBytes := float64(frame.W * frame.H * 8)
		t.Logf("parallel=%v: %.0f allocs, %.0f B per warm cycle at the median (frame buffer %.0f B)",
			parallel, allocs, perCycle, frameBytes)
		if allocs > 200 {
			t.Errorf("parallel=%v: %.0f allocations per warm Aerial+Release, budget 200", parallel, allocs)
		}
		if perCycle > frameBytes/8 {
			t.Errorf("parallel=%v: %.0f B per warm Aerial+Release, budget %.0f (an eighth of one frame buffer)",
				parallel, perCycle, frameBytes/8)
		}
	}
}
