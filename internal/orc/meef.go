package orc

import (
	"fmt"

	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// MEEF — the mask error enhancement factor — is the derivative of
// printed CD with respect to mask CD: d(CD_wafer)/d(CD_mask). At high
// k1 it approaches 1; as features shrink toward the resolution limit
// it grows, amplifying mask-making errors. MEEF is the reason OPC-era
// mask specs tightened: a MEEF of 3 turns a 4 nm mask error into 12 nm
// on the wafer.

// MEEFResult is one measurement.
type MEEFResult struct {
	// Nominal is the printed CD at the drawn mask size.
	Nominal float64
	// MEEF is the central-difference derivative.
	MEEF float64
}

// MeasureMEEF computes the MEEF at a cut site by symmetrically biasing
// the entire mask by +-delta (mask CD changes by 2*delta) and imaging
// both perturbations. The site must measure a dark feature.
func MeasureMEEF(sim *optics.Simulator, threshold float64, mask []geom.Polygon,
	window geom.Rect, cutAt geom.Point, horizontal bool, delta geom.Coord, maxSearch float64) (MEEFResult, error) {
	if delta <= 0 {
		return MEEFResult{}, fmt.Errorf("orc: MEEF delta must be positive")
	}
	measure := func(bias geom.Coord) (float64, error) {
		biased := mask
		if bias != 0 {
			biased = geom.RegionFromPolygons(mask...).Size(bias).Polygons()
		}
		im, err := sim.Aerial(biased, window)
		if err != nil {
			return 0, err
		}
		defer im.Release()
		return resist.MeasureCD(im, threshold, float64(cutAt.X), float64(cutAt.Y), horizontal, maxSearch)
	}
	nominal, err := measure(0)
	if err != nil {
		return MEEFResult{}, fmt.Errorf("orc: MEEF nominal: %w", err)
	}
	plus, err := measure(delta)
	if err != nil {
		return MEEFResult{}, fmt.Errorf("orc: MEEF +%d: %w", delta, err)
	}
	minus, err := measure(-delta)
	if err != nil {
		return MEEFResult{}, fmt.Errorf("orc: MEEF -%d: %w", delta, err)
	}
	// Mask CD change per side bias delta is 2*delta.
	meef := (plus - minus) / float64(4*delta)
	return MEEFResult{Nominal: nominal, MEEF: meef}, nil
}
