package main

import (
	"math/rand"
	"time"

	"goopc/internal/core"
	"goopc/internal/fft"
	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// probeInput is what a workload hands the probes: its flow, the drawn
// layer of its layout, its tile size and a corrected mask.
type probeInput struct {
	flow   *core.Flow
	target []geom.Polygon
	tile   geom.Coord
	mask   []geom.Polygon
}

const (
	// probeWindows tile windows are cut from the target; the probes
	// that solve a whole tile use the first solveWindows of them.
	probeWindows = 8
	solveWindows = 3
)

// timeMS runs fn and returns its wall clock in milliseconds.
func timeMS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds() * 1e3
}

// runProbes calls each layer's public functions directly on inputs cut
// from the workload and reports the median unit cost. It runs after the
// timed operations, because it resets the simulator's kernel cache.
func runProbes(in probeInput, seed int64, m map[string]float64) error {
	f := in.flow
	idx := geom.NewGridIndex(in.tile)
	var bounds geom.Rect
	for i, p := range in.target {
		bb := p.BBox()
		idx.Insert(bb, int32(i))
		if i == 0 {
			bounds = bb
		} else {
			bounds = bounds.Union(bb)
		}
	}

	// Seeded tile windows: non-empty tile cores of the grid the tiled
	// scheduler would lay, grown by the halo, with the geometry they see.
	var cores []geom.Rect
	for y := bounds.Y0; y < bounds.Y1; y += in.tile {
		for x := bounds.X0; x < bounds.X1; x += in.tile {
			c := geom.Rect{X0: x, Y0: y, X1: x + in.tile, Y1: y + in.tile}
			if len(idx.CollectIDs(c)) > 0 {
				cores = append(cores, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cores), func(i, j int) { cores[i], cores[j] = cores[j], cores[i] })
	if len(cores) > probeWindows {
		cores = cores[:probeWindows]
	}
	windows := make([]geom.Rect, len(cores))
	clips := make([][]geom.Polygon, len(cores))
	var query []float64
	for i, c := range cores {
		windows[i] = c.Grow(f.Ambit)
		var ids []int32
		const rounds = 200
		query = append(query, timeMS(func() {
			for k := 0; k < rounds; k++ {
				ids = idx.CollectIDs(windows[i])
			}
		})*1e3/rounds)
		sel := make([]geom.Polygon, len(ids))
		for j, id := range ids {
			sel[j] = in.target[id]
		}
		clips[i] = geom.RegionFromPolygons(sel...).Intersect(geom.RegionFromRects(windows[i])).Polygons()
	}
	m["geom.index_query_us"] = median(query)

	var boolean []float64
	for k := 0; k < 3; k++ {
		boolean = append(boolean, timeMS(func() { _ = geom.RegionFromPolygons(in.mask...).Polygons() }))
	}
	m["geom.boolean_ms"] = median(boolean)
	frag := timeMS(func() {
		for i, p := range in.target {
			_ = geom.FragmentPolygon(p, i, f.Spec)
		}
	})
	m["geom.fragment_us_per_poly"] = frag * 1e3 / float64(len(in.target))

	// Imaging: the warm-cache aerial image of every window.
	var aerial, contour []float64
	var images []*optics.Image
	for i := range windows {
		if _, err := f.Sim.Aerial(clips[i], windows[i]); err != nil {
			return err
		}
		var im *optics.Image
		var err error
		aerial = append(aerial, timeMS(func() { im, err = f.Sim.Aerial(clips[i], windows[i]) }))
		if err != nil {
			return err
		}
		images = append(images, im)
	}
	for i, im := range images {
		contour = append(contour, timeMS(func() { _ = resist.Contours(im, f.Threshold, windows[i]) }))
	}
	m["optics.aerial_ms"] = median(aerial)
	m["resist.contour_ms"] = median(contour)

	cw, ch, _, _, err := f.Sim.CoarseGrid(windows[0], 0)
	if err != nil {
		return err
	}
	plan, err := fft.NewPlan2D(cw, ch)
	if err != nil {
		return err
	}
	g := fft.GetGrid(cw, ch)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64(), 0)
	}
	var fwd []float64
	for k := 0; k < 30; k++ {
		fwd = append(fwd, timeMS(func() { err = plan.Forward2DP(g) })*1e3)
		if err != nil {
			return err
		}
	}
	fft.PutGrid(g)
	m["fft.fwd2d_us"] = median(fwd)

	// Whole-tile corrections of the first few windows, model then rules.
	// CorrectSample stops on the same stall criterion as the tiled
	// scheduler's engine runs; Correct would spend the full budget.
	var solve, rules []float64
	for i := 0; i < len(windows) && i < solveWindows; i++ {
		solve = append(solve, timeMS(func() { _, _, _, err = f.CorrectSample(clips[i], core.L3) }))
		if err != nil {
			return err
		}
		rules = append(rules, timeMS(func() { _, _, err = f.Correct(clips[i], core.L1) }))
		if err != nil {
			return err
		}
	}
	m["model.tile_solve_ms"] = median(solve)
	m["rules.apply_ms"] = median(rules)

	// Kernel build: the same image right after dropping the kernels,
	// against the warm image just before.
	var warm, cold []float64
	for k := 0; k < 3; k++ {
		warm = append(warm, timeMS(func() { _, err = f.Sim.Aerial(clips[0], windows[0]) }))
		f.Sim.ResetKernelCache()
		cold = append(cold, timeMS(func() { _, err = f.Sim.Aerial(clips[0], windows[0]) }))
		if err != nil {
			return err
		}
	}
	m["optics.kernel_build_ms"] = median(cold) - median(warm)
	return nil
}
