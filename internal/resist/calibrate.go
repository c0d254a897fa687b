package resist

import (
	"fmt"

	"goopc/internal/geom"
	"goopc/internal/optics"
)

// CalibrateThreshold performs the dose-to-size anchor calibration every
// production flow starts with: find the intensity threshold at which a
// dense line/space anchor pattern prints at its drawn CD. The anchor is
// lines of width anchorCD at pitch anchorPitch (equal-ish line/space is
// customary). Returns the calibrated threshold.
//
// The printed dark-line CD grows monotonically with the threshold, so
// bisection converges; the search window [0.05, 0.95] covers any
// physical process.
func CalibrateThreshold(sim *optics.Simulator, anchorCD, anchorPitch geom.Coord) (float64, error) {
	if anchorCD <= 0 || anchorPitch < anchorCD {
		return 0, fmt.Errorf("resist: bad anchor cd=%d pitch=%d", anchorCD, anchorPitch)
	}
	var mask []geom.Polygon
	for i := -5; i <= 5; i++ {
		x := geom.Coord(i) * anchorPitch
		mask = append(mask, geom.R(x-anchorCD/2, -4000, x+anchorCD/2, 4000).Polygon())
	}
	window := geom.R(-anchorPitch, -200, anchorPitch, 200)
	im, err := sim.Aerial(mask, window)
	if err != nil {
		return 0, fmt.Errorf("resist: calibration imaging: %w", err)
	}
	defer im.Release()
	target := float64(anchorCD)
	lo, hi := 0.05, 0.95
	measure := func(th float64) (float64, bool) {
		cd, err := MeasureCD(im, th, 0, 0, true, float64(anchorPitch))
		return cd, err == nil
	}
	// Establish a valid bracket: CD(lo) < target < CD(hi).
	cdLo, okLo := measure(lo)
	cdHi, okHi := measure(hi)
	if !okLo {
		cdLo = 0
	}
	if !okHi {
		cdHi = float64(anchorPitch)
	}
	if !(cdLo < target && target < cdHi) {
		return 0, fmt.Errorf("resist: anchor CD %d not reachable (cd[%.2f]=%.1f cd[%.2f]=%.1f)",
			anchorCD, lo, cdLo, hi, cdHi)
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		cd, ok := measure(mid)
		if !ok || cd < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
