// Package orc implements optical rule checking — the post-OPC
// verification step that made OPC adoptable in production: site-based
// edge-placement checks against the design target, pinching and
// bridging hotspot detection, assist-feature side-lobe printing checks,
// and exposure–defocus process-window analysis.
package orc

import (
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/opc"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// HotspotKind classifies a detected failure.
type HotspotKind uint8

// Hotspot kinds.
const (
	// Pinch: a drawn feature prints critically narrow or not at all.
	Pinch HotspotKind = iota
	// Bridge: a drawn space prints closed.
	Bridge
	// SideLobe: an assist feature prints.
	SideLobe
	// EPEViolation: edge placement error beyond the checker limit.
	EPEViolation
)

func (k HotspotKind) String() string {
	switch k {
	case Pinch:
		return "pinch"
	case Bridge:
		return "bridge"
	case SideLobe:
		return "side-lobe"
	case EPEViolation:
		return "epe"
	}
	return "?"
}

// Hotspot is one detected check failure.
type Hotspot struct {
	Kind HotspotKind
	At   geom.Point
	// Severity is kind-specific: printed/drawn CD ratio for pinch and
	// bridge, intensity margin for side lobes, |EPE| nm for EPE.
	Severity float64
	Detail   string
}

func (h Hotspot) String() string {
	return fmt.Sprintf("%s@%v sev=%.2f %s", h.Kind, h.At, h.Severity, h.Detail)
}

// Checker configures verification.
type Checker struct {
	Sim       *optics.Simulator
	Threshold float64
	// Spec controls check-site density (one site per fragment).
	Spec geom.FragmentSpec
	// EPELimit flags sites beyond this |EPE| in nm.
	EPELimit float64
	// SkipCornerEPE exempts corner-zone fragments from the EPE limit
	// (corners never print square; production checks spec them
	// separately). Pinch/bridge checks still run there.
	SkipCornerEPE bool
	// PinchRatio and BridgeRatio flag printed CD (or space) below this
	// fraction of drawn.
	PinchRatio, BridgeRatio float64
	// MaxSearch bounds contour searches in nm.
	MaxSearch float64
	// MaxProbe bounds the drawn-geometry neighbor probe in DBU.
	MaxProbe geom.Coord
}

// NewChecker returns production-typical limits: 10 nm EPE, 60% pinch
// and bridge ratios.
func NewChecker(sim *optics.Simulator, threshold float64) *Checker {
	return &Checker{
		Sim:           sim,
		Threshold:     threshold,
		Spec:          geom.DefaultFragmentSpec(),
		EPELimit:      10,
		SkipCornerEPE: true,
		PinchRatio:    0.6,
		BridgeRatio:   0.6,
		MaxSearch:     400,
		MaxProbe:      2000,
	}
}

// Report is the verification outcome for one window.
type Report struct {
	EPE      opc.EPEStats
	Hotspots []Hotspot
}

// Count returns the number of hotspots of a kind.
func (r Report) Count(k HotspotKind) int {
	n := 0
	for _, h := range r.Hotspots {
		if h.Kind == k {
			n++
		}
	}
	return n
}

// Check verifies a mask against its design target over the window.
func (c *Checker) Check(target []geom.Polygon, mask opc.Result, window geom.Rect) (Report, error) {
	im, err := c.Sim.Aerial(mask.AllMask(), window)
	if err != nil {
		return Report{}, fmt.Errorf("orc: imaging: %w", err)
	}
	defer im.Release()
	return c.CheckOnImage(im, target, mask), nil
}

// CheckOnImage verifies against an already-computed aerial image.
func (c *Checker) CheckOnImage(im *optics.Image, target []geom.Polygon, mask opc.Result) Report {
	var rep Report
	rep.EPE = opc.EvaluateEPEOnImage(im, c.Threshold, target, c.Spec, c.MaxSearch)

	for pi, p := range target {
		for _, f := range geom.FragmentPolygon(p, pi, c.Spec) {
			mid := f.Edge.Mid()
			n := f.Edge.Normal()

			// EPE site check (corner zones exempt when configured).
			cornerSite := f.Kind == geom.ConvexCornerFragment || f.Kind == geom.ConcaveCornerFragment
			epe, err := resist.EPE(im, c.Threshold, float64(mid.X), float64(mid.Y),
				float64(n.X), float64(n.Y), c.MaxSearch)
			if err == nil && math.Abs(epe) > c.EPELimit && !(c.SkipCornerEPE && cornerSite) {
				rep.Hotspots = append(rep.Hotspots, Hotspot{
					Kind: EPEViolation, At: mid, Severity: math.Abs(epe),
					Detail: fmt.Sprintf("epe %.1f nm", epe),
				})
			}

			// Pinch check: drawn CD through this fragment vs printed.
			drawnCD, ok := innerWidth(mid, n, p, c.MaxProbe)
			if ok && drawnCD > 0 {
				interior := geom.Pt(mid.X-n.X*drawnCD/2, mid.Y-n.Y*drawnCD/2)
				iv := im.AtPoint(interior)
				if iv >= c.Threshold {
					rep.Hotspots = append(rep.Hotspots, Hotspot{
						Kind: Pinch, At: interior, Severity: 0,
						Detail: "feature missing",
					})
				} else {
					cd, err := resist.MeasureCD(im, c.Threshold,
						float64(interior.X), float64(interior.Y),
						n.X != 0, c.MaxSearch)
					if err == nil && cd < c.PinchRatio*float64(drawnCD) {
						rep.Hotspots = append(rep.Hotspots, Hotspot{
							Kind: Pinch, At: interior, Severity: cd / float64(drawnCD),
							Detail: fmt.Sprintf("printed %.0f of drawn %d", cd, drawnCD),
						})
					}
				}
			}

			// Bridge check: the drawn space in front of the fragment.
			// Zero distance means abutting polygons of the same net — a
			// connection, not a space.
			space := opc.NeighborDistance(f, target, pi, c.MaxProbe)
			if space > 0 && space < c.MaxProbe {
				exterior := geom.Pt(mid.X+n.X*space/2, mid.Y+n.Y*space/2)
				ev := im.AtPoint(exterior)
				if ev < c.Threshold {
					rep.Hotspots = append(rep.Hotspots, Hotspot{
						Kind: Bridge, At: exterior, Severity: 0,
						Detail: fmt.Sprintf("space %d printed closed", space),
					})
				} else {
					gap, err := resist.MeasureGap(im, c.Threshold,
						float64(exterior.X), float64(exterior.Y),
						n.X != 0, c.MaxSearch)
					if err == nil && gap < c.BridgeRatio*float64(space) {
						rep.Hotspots = append(rep.Hotspots, Hotspot{
							Kind: Bridge, At: exterior, Severity: gap / float64(space),
							Detail: fmt.Sprintf("printed %.0f of drawn %d", gap, space),
						})
					}
				}
			}
		}
	}

	// Side-lobe check: assist features must not print. Sample each SRAF
	// polygon's interior.
	for _, s := range mask.SRAFs {
		ctr := s.BBox().Center()
		iv := im.AtPoint(ctr)
		if iv < c.Threshold {
			rep.Hotspots = append(rep.Hotspots, Hotspot{
				Kind: SideLobe, At: ctr, Severity: c.Threshold - iv,
				Detail: fmt.Sprintf("assist prints (I=%.2f < %.2f)", iv, c.Threshold),
			})
		}
	}
	dedupe(&rep)
	return rep
}

// innerWidth casts a ray from the edge midpoint into the polygon (along
// the inward normal) to the opposite boundary: the drawn feature width
// at this site.
func innerWidth(mid geom.Point, outward geom.Point, p geom.Polygon, maxDist geom.Coord) (geom.Coord, bool) {
	inward := geom.Pt(-outward.X, -outward.Y)
	// Step one unit in so the cast does not hit the edge we sit on.
	start := mid.Add(inward)
	best := maxDist + 1
	n := len(p)
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		var d geom.Coord
		var hit bool
		switch {
		case inward.X != 0 && a.X == b.X:
			lo, hi := a.Y, b.Y
			if lo > hi {
				lo, hi = hi, lo
			}
			if start.Y < lo || start.Y > hi {
				continue
			}
			delta := (a.X - start.X) * inward.X
			if delta >= 0 {
				d, hit = delta, true
			}
		case inward.Y != 0 && a.Y == b.Y:
			lo, hi := a.X, b.X
			if lo > hi {
				lo, hi = hi, lo
			}
			if start.X < lo || start.X > hi {
				continue
			}
			delta := (a.Y - start.Y) * inward.Y
			if delta >= 0 {
				d, hit = delta, true
			}
		}
		if hit && d > 0 && d < best {
			best = d
		}
	}
	if best > maxDist {
		return 0, false
	}
	return best + 1, true // account for the one-unit inset
}

// dedupe collapses hotspots of the same kind within a small radius so
// adjacent fragments reporting the same physical failure count once.
func dedupe(rep *Report) {
	const radius = 100
	var out []Hotspot
	for _, h := range rep.Hotspots {
		dup := false
		for _, o := range out {
			if o.Kind == h.Kind && o.At.ManhattanDist(h.At) < radius {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	rep.Hotspots = out
}
