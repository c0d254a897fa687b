// Package rules implements 2001-era rule-based OPC: selective line
// biasing from a pitch-keyed bias table, hammerhead line-end treatment,
// corner serifs, and scattering-bar (sub-resolution assist feature)
// insertion. Rule-based correction is pure geometry — fast, no imaging
// in the apply path — with the bias table itself generated once per
// process by simulation, exactly how production rule decks were built.
package rules

import (
	"context"
	"fmt"
	"sort"

	"goopc/internal/geom"
	"goopc/internal/opc"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// BiasEntry maps a proximity environment (space to the nearest facing
// feature, up to and including Space) to an edge bias.
type BiasEntry struct {
	// Space is the upper bound of the neighbor-distance bin.
	Space geom.Coord
	// Bias is the per-edge displacement (positive widens the feature).
	Bias geom.Coord
}

// BiasTable is the ordered rule deck: entries sorted by Space; lookups
// take the first entry whose Space bound covers the measured distance,
// falling back to IsoBias beyond the last bound.
type BiasTable struct {
	Entries []BiasEntry
	IsoBias geom.Coord
}

// Lookup returns the bias for a measured neighbor distance.
func (t BiasTable) Lookup(space geom.Coord) geom.Coord {
	for _, e := range t.Entries {
		if space <= e.Space {
			return e.Bias
		}
	}
	return t.IsoBias
}

// BuildBiasTable generates the rule deck by simulation, the way process
// groups did it: for each space bin, place a line array at that space,
// find by bisection the symmetric edge bias that makes the printed CD
// equal to drawn, and record it. cd is the drawn line width; spaces are
// the environment bins; threshold is the calibrated resist threshold.
func BuildBiasTable(sim *optics.Simulator, threshold float64, cd geom.Coord, spaces []geom.Coord) (BiasTable, error) {
	if cd <= 0 || len(spaces) == 0 {
		return BiasTable{}, fmt.Errorf("rules: bad bias table parameters")
	}
	sorted := append([]geom.Coord{}, spaces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var table BiasTable
	for _, space := range sorted {
		bias, err := solveBias(sim, threshold, cd, space, false)
		if err != nil {
			return BiasTable{}, fmt.Errorf("rules: space %d: %w", space, err)
		}
		table.Entries = append(table.Entries, BiasEntry{Space: space, Bias: bias})
	}
	isoBias, err := solveBias(sim, threshold, cd, 0, true)
	if err != nil {
		return BiasTable{}, fmt.Errorf("rules: iso: %w", err)
	}
	table.IsoBias = isoBias
	return table, nil
}

// solveBias finds the symmetric bias that prints a line of drawn cd at
// size in the given environment (space between lines, or isolated).
// Measurement failures are disambiguated to keep the bisection
// monotone: a bright center means the line vanished (CD 0); a dark
// center with no crossing means neighbors merged (CD effectively the
// full pitch).
func solveBias(sim *optics.Simulator, threshold float64, cd, space geom.Coord, iso bool) (geom.Coord, error) {
	pitch := cd + space
	measure := func(bias geom.Coord) float64 {
		w := cd + 2*bias
		if w < 4 {
			return 0 // no chrome left at all
		}
		var mask []geom.Polygon
		if iso {
			mask = []geom.Polygon{geom.R(-w/2, -4000, w/2, 4000).Polygon()}
		} else {
			for i := -5; i <= 5; i++ {
				x := geom.Coord(i) * pitch
				mask = append(mask, geom.R(x-w/2, -4000, x+w/2, 4000).Polygon())
			}
		}
		window := geom.R(-pitch-200, -200, pitch+200, 200)
		im, err := sim.Aerial(mask, window)
		if err != nil {
			return 0
		}
		defer im.Release()
		c, err := resist.MeasureCD(im, threshold, 0, 0, true, float64(pitch+400))
		if err != nil {
			if im.At(0, 0) < threshold {
				return float64(2 * (pitch + 400)) // merged: effectively huge
			}
			return 0 // vanished
		}
		return c
	}
	target := float64(cd)
	// Bracket the bias physically: never thin the line below a quarter
	// CD; allow up to +80 but never close a dense space below 40 nm.
	lo := -cd / 4
	hi := geom.Coord(80)
	if !iso && (space-40)/2 < hi {
		hi = (space - 40) / 2
	}
	if hi <= lo {
		return 0, fmt.Errorf("rules: space %d too tight to bias a %d line", space, cd)
	}
	cdLo := measure(lo)
	cdHi := measure(hi)
	if !(cdLo <= target && target <= cdHi) {
		return 0, fmt.Errorf("rules: target CD %d outside bracket [%.1f, %.1f] for space %d",
			cd, cdLo, cdHi, space)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if measure(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// Recipe is the full rule-based OPC recipe.
type Recipe struct {
	Bias BiasTable
	// Hammer controls line-end treatment: extension past the drawn end
	// and the extra half-width of the head on each side. Zero disables.
	HammerExt, HammerWing geom.Coord
	// SerifSize places squares of this size on convex corners (and
	// notches concave corners). Zero disables.
	SerifSize geom.Coord
	// SRAF controls scattering bars: a bar of width SRAFWidth at
	// distance SRAFSpace from edges whose neighbor distance exceeds
	// SRAFMinOpen. Zero width disables.
	SRAFWidth, SRAFSpace, SRAFMinOpen geom.Coord
	// MRC clamps biases.
	MRC opc.MRC
	// MaxProbe bounds the neighbor-distance search.
	MaxProbe geom.Coord
	// Spec controls fragmentation granularity for per-edge biasing.
	Spec geom.FragmentSpec
}

// DefaultRecipe returns a recipe with typical 248 nm parameters; the
// bias table must still be filled (BuildBiasTable) or left empty for
// no-bias operation.
func DefaultRecipe() Recipe {
	return Recipe{
		HammerExt:   25,
		HammerWing:  30,
		SerifSize:   40,
		SRAFWidth:   60,
		SRAFSpace:   280,
		SRAFMinOpen: 1000,
		MRC:         opc.DefaultMRC(),
		MaxProbe:    2000,
		Spec:        geom.DefaultFragmentSpec(),
	}
}

// Apply corrects the drawn polygons per the recipe. Pure geometry: the
// simulator is not consulted.
func (r Recipe) Apply(target []geom.Polygon) opc.Result {
	res, _ := r.ApplyCtx(context.Background(), target)
	return res
}

// ApplyCtx is Apply bounded by a context: cancellation aborts between
// polygons with the context error. Rule-based correction is cheap, but
// a full-chip layer is millions of polygons — the resilience layer
// needs even the fallback path to honor run deadlines.
func (r Recipe) ApplyCtx(ctx context.Context, target []geom.Polygon) (opc.Result, error) {
	var out opc.Result
	for pi, p := range target {
		if err := ctx.Err(); err != nil {
			return opc.Result{}, fmt.Errorf("rules: polygon %d: %w", pi, err)
		}
		frags := geom.FragmentPolygon(p, pi, r.Spec)
		// Per-fragment bias from the neighbor environment.
		for i := range frags {
			space := opc.NeighborDistance(frags[i], target, pi, r.MaxProbe)
			frags[i].Bias = r.MRC.Clamp(r.Bias.Lookup(space))
		}
		corrected := geom.RebuildPolygon(frags)
		add := []geom.Polygon{corrected}
		var sub []geom.Polygon
		// Line-end hammerheads and corner serifs are applied at the
		// *drawn* geometry positions, displaced by the local bias.
		for _, f := range frags {
			switch f.Kind {
			case geom.LineEndFragment:
				if r.HammerExt > 0 || r.HammerWing > 0 {
					add = append(add, hammerhead(f, r))
				}
			case geom.ConvexCornerFragment:
				if r.SerifSize > 0 {
					if s, ok := cornerSerif(f, r.SerifSize, true); ok {
						add = append(add, s)
					}
				}
			case geom.ConcaveCornerFragment:
				if r.SerifSize > 0 {
					if s, ok := cornerSerif(f, r.SerifSize, false); ok {
						sub = append(sub, s)
					}
				}
			}
		}
		merged := geom.BooleanPolygons(add, sub, "sub").Polygons()
		out.Corrected = append(out.Corrected, merged...)
	}
	// Scattering bars for open edges, after correction so bars key off
	// drawn geometry but never merge with it.
	if r.SRAFWidth > 0 {
		bars := scatteringBars(target, r)
		out.SRAFs = append(out.SRAFs, bars...)
	}
	return out, nil
}

// hammerhead returns the head rectangle for a line-end fragment: the
// drawn end extended by HammerExt and widened by HammerWing per side,
// with head depth equal to the wing.
func hammerhead(f geom.Fragment, r Recipe) geom.Polygon {
	e := f.Edge
	n := e.Normal()
	// The head spans the line width (the edge itself) plus wings along
	// the edge direction, and extends HammerExt outward plus a depth
	// equal to HammerWing inward for manufacturability.
	d := e.Dir.Delta()
	a, b := e.A, e.B
	lo := geom.Pt(minC(a.X, b.X), minC(a.Y, b.Y))
	hi := geom.Pt(maxC(a.X, b.X), maxC(a.Y, b.Y))
	// Widen along the edge axis.
	if d.X != 0 { // horizontal line-end edge (vertical line tip? no: edge runs along x)
		lo.X -= r.HammerWing
		hi.X += r.HammerWing
	} else {
		lo.Y -= r.HammerWing
		hi.Y += r.HammerWing
	}
	// Extend outward and inward across the edge.
	depthIn := r.HammerWing
	if n.X > 0 {
		hi.X += r.HammerExt
		lo.X -= depthIn
	} else if n.X < 0 {
		lo.X -= r.HammerExt
		hi.X += depthIn
	} else if n.Y > 0 {
		hi.Y += r.HammerExt
		lo.Y -= depthIn
	} else {
		lo.Y -= r.HammerExt
		hi.Y += depthIn
	}
	return geom.R(lo.X, lo.Y, hi.X, hi.Y).Polygon()
}

// cornerSerif returns the serif square at the corner end of a corner
// fragment. For convex corners the square is centered on the corner
// vertex (added); for concave it is likewise centered (subtracted).
func cornerSerif(f geom.Fragment, size geom.Coord, convex bool) (geom.Polygon, bool) {
	var v geom.Point
	switch {
	case convex && f.Edge.CornerA == geom.Convex:
		v = f.Edge.A
	case convex && f.Edge.CornerB == geom.Convex:
		v = f.Edge.B
	case !convex && f.Edge.CornerA == geom.Concave:
		v = f.Edge.A
	case !convex && f.Edge.CornerB == geom.Concave:
		v = f.Edge.B
	default:
		return nil, false
	}
	half := size / 2
	return geom.R(v.X-half, v.Y-half, v.X+half, v.Y+half).Polygon(), true
}

// scatteringBars places one assist bar parallel to each sufficiently
// open edge. Bars are merged and then trimmed against a forbidden halo
// around all main features so they never touch printing geometry.
func scatteringBars(target []geom.Polygon, r Recipe) []geom.Polygon {
	var bars []geom.Rect
	for pi, p := range target {
		// Bars span whole edges, not fragments: assist placement is an
		// edge-scale decision.
		for _, e := range p.Edges() {
			if e.Len() < 3*r.SRAFWidth {
				continue // too short to benefit
			}
			f := geom.Fragment{Edge: e, PolyIndex: pi}
			space := opc.NeighborDistance(f, target, pi, r.MaxProbe)
			if space < r.SRAFMinOpen {
				continue
			}
			n := e.Normal()
			a, b := e.A, e.B
			lo := geom.Pt(minC(a.X, b.X), minC(a.Y, b.Y))
			hi := geom.Pt(maxC(a.X, b.X), maxC(a.Y, b.Y))
			off0 := r.SRAFSpace
			off1 := r.SRAFSpace + r.SRAFWidth
			var bar geom.Rect
			switch {
			case n.X > 0:
				bar = geom.R(hi.X+off0, lo.Y, hi.X+off1, hi.Y)
			case n.X < 0:
				bar = geom.R(lo.X-off1, lo.Y, lo.X-off0, hi.Y)
			case n.Y > 0:
				bar = geom.R(lo.X, hi.Y+off0, hi.X, hi.Y+off1)
			default:
				bar = geom.R(lo.X, lo.Y-off1, hi.X, lo.Y-off0)
			}
			bars = append(bars, bar)
		}
	}
	if len(bars) == 0 {
		return nil
	}
	// Merge overlapping bars, then keep clear of main features by a
	// halo of SRAFSpace/2.
	barRegion := geom.RegionFromRects(bars...)
	halo := geom.RegionFromPolygons(target...).Grow(r.SRAFSpace / 2)
	return barRegion.Subtract(halo).Polygons()
}

// Fragment kind aliases so the bar placer reads cleanly.
const (
	RunKind    = geom.RunFragment
	ConvexKind = geom.ConvexCornerFragment
)

func minC(a, b geom.Coord) geom.Coord {
	if a < b {
		return a
	}
	return b
}

func maxC(a, b geom.Coord) geom.Coord {
	if a > b {
		return a
	}
	return b
}
