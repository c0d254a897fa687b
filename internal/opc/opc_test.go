package opc

import (
	"math"
	"testing"

	"goopc/internal/geom"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

func fastSim(t *testing.T) *optics.Simulator {
	t.Helper()
	s := optics.Default()
	s.SourceSteps = 5
	s.GuardNM = 1200
	sim, err := optics.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestMRCClamp(t *testing.T) {
	m := MRC{MaxBias: 40, MinBias: -40, Grid: 2}
	cases := []struct{ in, want geom.Coord }{
		{0, 0},
		{3, 4}, // snaps to grid
		{-3, -4},
		{100, 40},   // clamps high
		{-100, -40}, // clamps low
		{39, 40},
		{2, 2},
	}
	for _, c := range cases {
		if got := m.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// Grid 1 passes values through (within bounds).
	m1 := MRC{MaxBias: 40, MinBias: -40, Grid: 1}
	if got := m1.Clamp(3); got != 3 {
		t.Errorf("grid-1 Clamp(3) = %d", got)
	}
}

func TestResultAllMask(t *testing.T) {
	r := Result{
		Corrected: []geom.Polygon{geom.R(0, 0, 10, 10).Polygon()},
		SRAFs:     []geom.Polygon{geom.R(20, 0, 25, 10).Polygon()},
	}
	if got := len(r.AllMask()); got != 2 {
		t.Errorf("AllMask = %d polygons", got)
	}
	u := Uncorrected(r.Corrected)
	if len(u.AllMask()) != 1 || len(u.SRAFs) != 0 {
		t.Error("Uncorrected should pass through")
	}
}

func TestWindowFor(t *testing.T) {
	polys := []geom.Polygon{
		geom.R(0, 0, 100, 100).Polygon(),
		geom.R(500, 500, 600, 700).Polygon(),
	}
	w := WindowFor(polys, 250)
	if w != geom.R(-250, -250, 850, 950) {
		t.Errorf("window = %v", w)
	}
}

func TestNeighborDistance(t *testing.T) {
	a := geom.R(0, 0, 100, 1000).Polygon()
	b := geom.R(400, 0, 500, 1000).Polygon()
	polys := []geom.Polygon{a, b}
	frags := geom.FragmentPolygon(a, 0, geom.FragmentSpec{MaxLen: 1000, CornerLen: 0, LineEndMax: 150})
	// Find the east-facing fragment of a (its right edge, at x=100).
	var east *geom.Fragment
	for i := range frags {
		if frags[i].Edge.Normal() == geom.Pt(1, 0) {
			east = &frags[i]
		}
	}
	if east == nil {
		t.Fatal("no east-facing fragment")
	}
	d := NeighborDistance(*east, polys, 0, 2000)
	if d != 300 {
		t.Errorf("neighbor distance = %d, want 300", d)
	}
	// The west side sees nothing: max distance returned.
	var west *geom.Fragment
	for i := range frags {
		if frags[i].Edge.Normal() == geom.Pt(-1, 0) {
			west = &frags[i]
		}
	}
	if d := NeighborDistance(*west, polys, 0, 2000); d != 2000 {
		t.Errorf("iso distance = %d, want 2000", d)
	}
}

func TestNeighborDistanceVertical(t *testing.T) {
	a := geom.R(0, 0, 1000, 100).Polygon()
	b := geom.R(0, 350, 1000, 450).Polygon()
	frags := geom.FragmentPolygon(a, 0, geom.FragmentSpec{MaxLen: 2000, CornerLen: 0, LineEndMax: 150})
	var north *geom.Fragment
	for i := range frags {
		if frags[i].Edge.Normal() == geom.Pt(0, 1) {
			north = &frags[i]
		}
	}
	if north == nil {
		t.Fatal("no north fragment")
	}
	if d := NeighborDistance(*north, []geom.Polygon{a, b}, 0, 2000); d != 250 {
		t.Errorf("vertical neighbor distance = %d, want 250", d)
	}
}

func TestEvaluateEPEUncorrectedIso(t *testing.T) {
	sim := fastSim(t)
	th, err := resist.CalibrateThreshold(sim, 250, 500)
	if err != nil {
		t.Fatal(err)
	}
	// An isolated 180 line misprints at the dense-calibrated threshold:
	// nonzero mean |EPE| on the long edges.
	target := []geom.Polygon{geom.R(-90, -2000, 90, 2000).Polygon()}
	window := geom.R(-500, -500, 500, 500)
	st, err := EvaluateEPE(sim, th, target, Uncorrected(target), window,
		geom.DefaultFragmentSpec(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sites == 0 {
		t.Fatal("no sites")
	}
	if st.MeanAbs < 1 {
		t.Errorf("iso line should show EPE at dense calibration, mean=%.2f", st.MeanAbs)
	}
	if st.Max < st.MeanAbs {
		t.Error("max < mean")
	}
	if st.RMS < st.MeanAbs {
		t.Error("RMS must be >= mean abs")
	}
}

func TestEvaluateEPEStatsShape(t *testing.T) {
	// A synthetic image where everything resolves: flat bright field,
	// target edges all unresolved -> Unresolved counts.
	f := optics.Frame{W: 64, H: 64, PixelNM: 16, OriginX: -512, OriginY: -512}
	im := &optics.Image{Frame: f, I: make([]float64, 64*64)}
	for i := range im.I {
		im.I[i] = 1.0
	}
	target := []geom.Polygon{geom.R(-100, -100, 100, 100).Polygon()}
	st := EvaluateEPEOnImage(im, 0.3, target, geom.DefaultFragmentSpec(), 100)
	if st.Unresolved != st.Sites {
		t.Errorf("flat field: unresolved=%d sites=%d", st.Unresolved, st.Sites)
	}
	if !math.IsNaN(st.MeanAbs) && st.MeanAbs != 0 {
		t.Errorf("no resolved sites but MeanAbs=%f", st.MeanAbs)
	}
}
