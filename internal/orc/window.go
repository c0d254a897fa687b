package orc

import (
	"fmt"
	"math"

	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// PWSite is one CD monitor for process-window analysis.
type PWSite struct {
	Name string
	// At is the cut center (must print as a dark feature at nominal
	// conditions).
	At geom.Point
	// Horizontal is the cut direction.
	Horizontal bool
	// TargetCD and TolFrac define the spec: |CD - target| <= TolFrac *
	// target.
	TargetCD float64
	TolFrac  float64
}

// PWResult is the exposure-defocus analysis outcome.
type PWResult struct {
	Focuses []float64 // nm
	Doses   []float64 // relative, 1.0 nominal
	// CD[s][f][d] is the printed CD of site s at focus f, dose d;
	// NaN when the feature failed to print.
	CD [][][]float64
	// InSpec[f][d] is true when every site meets its spec.
	InSpec [][]bool
	Sites  []PWSite
}

// AnalyzeWindow runs the exposure-defocus matrix: one aerial image per
// focus (dose enters as threshold scaling, so doses are free), measuring
// every site at every condition.
func AnalyzeWindow(sim *optics.Simulator, threshold float64, mask []geom.Polygon,
	window geom.Rect, sites []PWSite, focuses, doses []float64) (*PWResult, error) {
	if len(sites) == 0 || len(focuses) == 0 || len(doses) == 0 {
		return nil, fmt.Errorf("orc: process window needs sites, focuses and doses")
	}
	res := &PWResult{Focuses: focuses, Doses: doses, Sites: sites}
	res.CD = make([][][]float64, len(sites))
	for s := range sites {
		res.CD[s] = make([][]float64, len(focuses))
		for f := range focuses {
			res.CD[s][f] = make([]float64, len(doses))
		}
	}
	res.InSpec = make([][]bool, len(focuses))
	for f, focus := range focuses {
		im, err := sim.AerialDefocus(mask, window, focus)
		if err != nil {
			return nil, fmt.Errorf("orc: focus %v: %w", focus, err)
		}
		res.InSpec[f] = make([]bool, len(doses))
		for d, dose := range doses {
			th := threshold / dose
			ok := true
			for s, site := range sites {
				cd, err := resist.MeasureCD(im, th, float64(site.At.X), float64(site.At.Y),
					site.Horizontal, 3*site.TargetCD)
				if err != nil {
					res.CD[s][f][d] = math.NaN()
					ok = false
					continue
				}
				res.CD[s][f][d] = cd
				if math.Abs(cd-site.TargetCD) > site.TolFrac*site.TargetCD {
					ok = false
				}
			}
			res.InSpec[f][d] = ok
		}
		im.Release()
	}
	return res, nil
}

// ExposureLatitudeAt returns the widest contiguous in-spec dose range at
// one focus, as a fraction of nominal dose.
func (r *PWResult) ExposureLatitudeAt(focusIdx int) float64 {
	if focusIdx < 0 || focusIdx >= len(r.Focuses) {
		return 0
	}
	best := 0.0
	start := -1
	for d := 0; d <= len(r.Doses); d++ {
		in := d < len(r.Doses) && r.InSpec[focusIdx][d]
		if in && start == -1 {
			start = d
		}
		if !in && start != -1 {
			span := r.Doses[d-1] - r.Doses[start]
			if span > best {
				best = span
			}
			start = -1
		}
	}
	return best
}

// DOF returns the widest focus span over which a common dose window of
// at least minEL (relative dose width) stays in spec. This is the
// overlapping-process-window depth of focus.
func (r *PWResult) DOF(minEL float64) float64 {
	nF := len(r.Focuses)
	best := 0.0
	for i := 0; i < nF; i++ {
		// Common in-spec dose set across focuses i..j.
		common := make([]bool, len(r.Doses))
		copy(common, r.InSpec[i])
		for j := i; j < nF; j++ {
			if j > i {
				for d := range common {
					common[d] = common[d] && r.InSpec[j][d]
				}
			}
			if widestDoseSpan(common, r.Doses) >= minEL {
				span := math.Abs(r.Focuses[j] - r.Focuses[i])
				if span > best {
					best = span
				}
			}
		}
	}
	return best
}

func widestDoseSpan(in []bool, doses []float64) float64 {
	best := 0.0
	start := -1
	for d := 0; d <= len(doses); d++ {
		ok := d < len(doses) && in[d]
		if ok && start == -1 {
			start = d
		}
		if !ok && start != -1 {
			span := doses[d-1] - doses[start]
			if span > best {
				best = span
			}
			start = -1
		}
	}
	return best
}
