package core

import (
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/resist"
)

// PitchResult is one point of the design-rule exploration sweep.
type PitchResult struct {
	Pitch geom.Coord
	// PrintedCD is the measured center-line CD (NaN when the feature
	// failed).
	PrintedCD float64
	InSpec    bool
}

// MinPitchForSpec sweeps candidate pitches (ascending) for a line of
// drawn cd, corrects each array at the adoption level, and reports the
// smallest pitch whose printed CD stays within tolFrac of drawn — the
// design-rule headroom each OPC level buys (experiment R-T4). A zero
// return means no candidate pitch met spec.
func (f *Flow) MinPitchForSpec(cd geom.Coord, pitches []geom.Coord, tolFrac float64, level Level) (geom.Coord, []PitchResult, error) {
	if cd <= 0 || len(pitches) == 0 {
		return 0, nil, fmt.Errorf("core: bad exploration parameters")
	}
	var results []PitchResult
	var best geom.Coord
	for _, pitch := range pitches {
		if pitch < cd {
			return 0, nil, fmt.Errorf("core: pitch %d below cd %d", pitch, cd)
		}
		pr := PitchResult{Pitch: pitch, PrintedCD: math.NaN()}
		var target []geom.Polygon
		for i := -3; i <= 3; i++ {
			x := geom.Coord(i) * pitch
			target = append(target, geom.R(x-cd/2, -2500, x+cd/2, 2500).Polygon())
		}
		res, _, err := f.Correct(target, level)
		if err != nil {
			return 0, nil, fmt.Errorf("core: pitch %d: %w", pitch, err)
		}
		window := geom.R(-pitch-300, -300, pitch+300, 300)
		im, err := f.Sim.Aerial(res.AllMask(), window)
		if err != nil {
			return 0, nil, fmt.Errorf("core: pitch %d imaging: %w", pitch, err)
		}
		cdM, err := resist.MeasureCD(im, f.Threshold, 0, 0, true, float64(pitch))
		im.Release()
		if err == nil {
			pr.PrintedCD = cdM
			pr.InSpec = math.Abs(cdM-float64(cd)) <= tolFrac*float64(cd)
		}
		if pr.InSpec && (best == 0 || pitch < best) {
			best = pitch
		}
		results = append(results, pr)
	}
	return best, results, nil
}
