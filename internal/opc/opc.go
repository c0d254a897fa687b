// Package opc holds the shared framework both OPC engines build on:
// the corrected-mask result type, the edge-placement-error evaluation
// used to score a mask against its design target, mask-rule clamps on
// edge movement, and the neighbor-distance probe that classifies the
// proximity environment of an edge (the quantity rule-based bias tables
// are keyed on).
//
// The engines themselves live in the subpackages: opc/rules implements
// 2001-style rule-based correction (bias tables, hammerheads, serifs,
// scattering bars) and opc/model implements model-based correction
// (fragmentation plus damped EPE-feedback iteration against the aerial
// image simulator).
package opc

import (
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// Result is a corrected mask: the main-feature polygons plus any
// sub-resolution assist features (which go to their own layer and must
// not print).
type Result struct {
	Corrected []geom.Polygon
	SRAFs     []geom.Polygon
}

// AllMask returns the full mask pattern (main + assists) for simulation.
func (r Result) AllMask() []geom.Polygon {
	if len(r.SRAFs) == 0 {
		return r.Corrected
	}
	out := make([]geom.Polygon, 0, len(r.Corrected)+len(r.SRAFs))
	out = append(out, r.Corrected...)
	out = append(out, r.SRAFs...)
	return out
}

// Uncorrected wraps a drawn layer as a pass-through result (correction
// level L0).
func Uncorrected(polys []geom.Polygon) Result {
	return Result{Corrected: polys}
}

// MRC holds the mask-rule constraints that clamp edge movement. All in
// DBU (nm at 1x; mask-shop rules are quoted at 4x reticle scale, 1x
// here).
type MRC struct {
	// MaxBias and MinBias bound per-edge displacement.
	MaxBias, MinBias geom.Coord
	// Grid snaps biases to the mask writer address grid.
	Grid geom.Coord
}

// DefaultMRC matches a 2001 mask shop: +-40 nm movement, 2 nm grid.
func DefaultMRC() MRC { return MRC{MaxBias: 40, MinBias: -40, Grid: 2} }

// Clamp applies the constraints to a proposed bias.
func (m MRC) Clamp(b geom.Coord) geom.Coord {
	if m.Grid > 1 {
		// Round to the nearest grid step.
		half := m.Grid / 2
		if b >= 0 {
			b = (b + half) / m.Grid * m.Grid
		} else {
			b = -((-b + half) / m.Grid * m.Grid)
		}
	}
	if b > m.MaxBias {
		b = m.MaxBias
	}
	if b < m.MinBias {
		b = m.MinBias
	}
	return b
}

// EPEStats summarizes edge placement error over a set of control sites.
type EPEStats struct {
	Sites      int
	Unresolved int // sites where no contour crossing was found
	MeanAbs    float64
	RMS        float64
	Max        float64 // max |EPE|
	MeanSigned float64
}

// EvaluateEPE fragments the drawn target polygons, simulates the mask
// (which may differ from the target — that is the point of OPC), and
// measures the signed EPE at every fragment midpoint of the *target*.
// maxSearch bounds the contour search distance.
func EvaluateEPE(sim *optics.Simulator, threshold float64, target []geom.Polygon,
	mask Result, window geom.Rect, spec geom.FragmentSpec, maxSearch float64) (EPEStats, error) {
	im, err := sim.Aerial(mask.AllMask(), window)
	if err != nil {
		return EPEStats{}, fmt.Errorf("opc: EPE imaging: %w", err)
	}
	defer im.Release()
	return EvaluateEPEOnImage(im, threshold, target, spec, maxSearch), nil
}

// EvaluateEPEOnImage measures EPE against an already-computed image.
func EvaluateEPEOnImage(im *optics.Image, threshold float64, target []geom.Polygon,
	spec geom.FragmentSpec, maxSearch float64) EPEStats {
	var st EPEStats
	var sumAbs, sumSq, sumSigned float64
	for pi, p := range target {
		for _, f := range geom.FragmentPolygon(p, pi, spec) {
			mid := f.Edge.Mid()
			n := f.Edge.Normal()
			st.Sites++
			epe, err := resist.EPE(im, threshold, float64(mid.X), float64(mid.Y),
				float64(n.X), float64(n.Y), maxSearch)
			if err != nil {
				st.Unresolved++
				continue
			}
			a := math.Abs(epe)
			sumAbs += a
			sumSq += epe * epe
			sumSigned += epe
			if a > st.Max {
				st.Max = a
			}
		}
	}
	resolved := st.Sites - st.Unresolved
	if resolved > 0 {
		st.MeanAbs = sumAbs / float64(resolved)
		st.RMS = math.Sqrt(sumSq / float64(resolved))
		st.MeanSigned = sumSigned / float64(resolved)
	}
	return st
}

// WindowFor returns the simulation window for a set of polygons: the
// bounding box grown by the optical ambit.
func WindowFor(polys []geom.Polygon, ambit geom.Coord) geom.Rect {
	var bb geom.Rect
	for i, p := range polys {
		if i == 0 {
			bb = p.BBox()
		} else {
			bb = bb.Union(p.BBox())
		}
	}
	return bb.Grow(ambit)
}

// NeighborDistance probes the open space in front of an edge fragment:
// the distance from the fragment midpoint, along the outward normal, to
// the nearest facing polygon (searching up to maxDist). It returns
// maxDist when nothing is found — the "isolated" classification.
//
// The probe works on the polygon set directly (not the simulator), so
// rule-based OPC can run without any imaging.
func NeighborDistance(frag geom.Fragment, polys []geom.Polygon, selfIdx int, maxDist geom.Coord) geom.Coord {
	mid := frag.Edge.Mid()
	n := frag.Edge.Normal()
	best := maxDist
	for pi, p := range polys {
		if pi == selfIdx {
			continue
		}
		d, ok := rayToPolygon(mid, n, p, maxDist)
		if ok && d < best {
			best = d
		}
	}
	return best
}

// rayToPolygon intersects an axis-aligned ray with a polygon boundary
// and returns the nearest hit distance.
func rayToPolygon(from geom.Point, dir geom.Point, p geom.Polygon, maxDist geom.Coord) (geom.Coord, bool) {
	best := maxDist + 1
	n := len(p)
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		var d geom.Coord
		var hit bool
		switch {
		case dir.X != 0 && a.X == b.X: // horizontal ray vs vertical edge
			lo, hi := a.Y, b.Y
			if lo > hi {
				lo, hi = hi, lo
			}
			if from.Y < lo || from.Y > hi {
				continue
			}
			delta := (a.X - from.X) * dir.X
			if delta >= 0 {
				d, hit = delta, true
			}
		case dir.Y != 0 && a.Y == b.Y: // vertical ray vs horizontal edge
			lo, hi := a.X, b.X
			if lo > hi {
				lo, hi = hi, lo
			}
			if from.X < lo || from.X > hi {
				continue
			}
			delta := (a.Y - from.Y) * dir.Y
			if delta >= 0 {
				d, hit = delta, true
			}
		}
		if hit && d < best {
			best = d
		}
	}
	if best > maxDist {
		return maxDist, false
	}
	return best, true
}
