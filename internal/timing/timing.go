// Package timing closes the loop from lithography back to design: it
// extracts transistor gates (poly over active), measures each gate's
// printed channel length on the simulated wafer, and maps the length
// distribution to delay and leakage spread with compact device models.
// This is the "impact on design" the paper's audience cared about —
// post-OPC CDs feeding timing signoff (the methodology later formalized
// in Yang/Capodieci/Sylvester, DAC 2005).
package timing

import (
	"errors"
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// Device holds the compact electrical model.
type Device struct {
	// NominalL is the drawn channel length (nm).
	NominalL geom.Coord
	// Alpha is the alpha-power-law saturation exponent: drive current
	// scales as (L/Lnom)^-Alpha, so gate delay scales as
	// (L/Lnom)^Alpha. 1.3 is typical for a 180 nm velocity-saturated
	// device.
	Alpha float64
	// LeakSlopeNM is the subthreshold leakage slope vs channel length:
	// leakage multiplies by e every LeakSlopeNM of gate shortening.
	LeakSlopeNM float64
}

// Device180 returns the 180 nm-node compact model.
func Device180() Device {
	return Device{NominalL: 180, Alpha: 1.3, LeakSlopeNM: 18}
}

// DelayFactor returns the gate delay relative to nominal for a printed
// channel length.
func (d Device) DelayFactor(printedL float64) float64 {
	if printedL <= 0 {
		return math.Inf(1)
	}
	return math.Pow(printedL/float64(d.NominalL), d.Alpha)
}

// LeakageFactor returns the subthreshold leakage relative to nominal.
// Shorter channels leak exponentially more.
func (d Device) LeakageFactor(printedL float64) float64 {
	return math.Exp((float64(d.NominalL) - printedL) / d.LeakSlopeNM)
}

// Gate is one extracted transistor channel: the intersection of a poly
// line with active.
type Gate struct {
	// Channel is the poly-over-active rectangle.
	Channel geom.Rect
	// DrawnL is the drawn channel length; CutHorizontal is true when
	// the length runs along x.
	DrawnL        geom.Coord
	CutHorizontal bool
}

// ExtractGates intersects poly with active and returns a gate per
// crossing rectangle. The channel length is taken as the dimension that
// matches typical gate geometry (the smaller side, bounded by maxL).
func ExtractGates(poly, active []geom.Polygon, maxL geom.Coord) []Gate {
	cross := geom.BooleanPolygons(poly, nil, "or").
		Intersect(geom.BooleanPolygons(active, nil, "or"))
	var out []Gate
	for _, r := range cross.Rects() {
		w, h := r.W(), r.H()
		var g Gate
		g.Channel = r
		switch {
		case w <= h && w <= maxL:
			g.DrawnL = w
			g.CutHorizontal = true
		case h < w && h <= maxL:
			g.DrawnL = h
			g.CutHorizontal = false
		default:
			continue // not channel-shaped (e.g. pad overlap)
		}
		out = append(out, g)
	}
	return out
}

// GateResult is the printed measurement of one gate.
type GateResult struct {
	Gate     Gate
	PrintedL float64 // NaN when the gate failed to print
	Delay    float64
	Leakage  float64
}

// ErrNoGates is returned when extraction finds nothing to measure.
var ErrNoGates = errors.New("timing: no gates extracted")

// MeasureGates images the mask and measures every gate's printed
// channel length at its channel center. The mask is the full corrected
// poly layer; window geometry is handled per gate with a local clip.
func MeasureGates(sim *optics.Simulator, threshold float64, mask []geom.Polygon,
	gates []Gate, dev Device) ([]GateResult, error) {
	if len(gates) == 0 {
		return nil, ErrNoGates
	}
	// Index mask polygons for local clips.
	idx := geom.NewGridIndex(5000)
	for i, p := range mask {
		idx.Insert(p.BBox(), int32(i))
	}
	ambit := geom.Coord(2 * sim.S.LambdaNM / sim.S.NA)
	out := make([]GateResult, 0, len(gates))
	for _, g := range gates {
		c := g.Channel.Center()
		window := geom.Rect{X0: c.X - 400, Y0: c.Y - 400, X1: c.X + 400, Y1: c.Y + 400}
		var clip []geom.Polygon
		for _, id := range idx.CollectIDs(window.Grow(ambit)) {
			clip = append(clip, mask[id])
		}
		im, err := sim.Aerial(clip, window)
		if err != nil {
			return nil, fmt.Errorf("timing: gate at %v: %w", c, err)
		}
		res := GateResult{Gate: g, PrintedL: math.NaN()}
		cd, err := resist.MeasureCD(im, threshold, float64(c.X), float64(c.Y),
			g.CutHorizontal, float64(4*g.DrawnL))
		im.Release()
		if err == nil {
			res.PrintedL = cd
			res.Delay = dev.DelayFactor(cd)
			res.Leakage = dev.LeakageFactor(cd)
		}
		out = append(out, res)
	}
	return out, nil
}

// Stats aggregates a gate population into the numbers a timing signoff
// consumes.
type Stats struct {
	Gates  int
	Failed int // gates that did not print
	// MeanL and SigmaL describe the printed-length distribution (nm).
	MeanL, SigmaL float64
	// WorstDelay is the slowest gate's delay factor; MeanDelay the
	// population mean.
	MeanDelay, WorstDelay float64
	// MeanLeakage is the population mean leakage factor (nominal = 1);
	// WorstLeakage the leakiest gate.
	MeanLeakage, WorstLeakage float64
}

// Aggregate computes the statistics of a measured population.
func Aggregate(results []GateResult) Stats {
	var st Stats
	st.Gates = len(results)
	var sumL, sumL2, sumD, sumK float64
	n := 0
	for _, r := range results {
		if math.IsNaN(r.PrintedL) {
			st.Failed++
			continue
		}
		n++
		sumL += r.PrintedL
		sumL2 += r.PrintedL * r.PrintedL
		sumD += r.Delay
		sumK += r.Leakage
		if r.Delay > st.WorstDelay {
			st.WorstDelay = r.Delay
		}
		if r.Leakage > st.WorstLeakage {
			st.WorstLeakage = r.Leakage
		}
	}
	if n > 0 {
		st.MeanL = sumL / float64(n)
		v := sumL2/float64(n) - st.MeanL*st.MeanL
		if v > 0 {
			st.SigmaL = math.Sqrt(v)
		}
		st.MeanDelay = sumD / float64(n)
		st.MeanLeakage = sumK / float64(n)
	}
	return st
}
