package core

import (
	"math/rand"
	"sync"
	"testing"

	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/optics"
)

// testFlow is shared across the package tests: building it calibrates
// the threshold and the bias table, which costs a few seconds.
var (
	flowOnce sync.Once
	flowVal  *Flow
	flowErr  error
)

func testFlow(t *testing.T) *Flow {
	t.Helper()
	flowOnce.Do(func() {
		s := optics.Default()
		s.SourceSteps = 5
		s.GuardNM = 1200
		flowVal, flowErr = NewFlow(Options{
			Optics:     s,
			BiasSpaces: []geom.Coord{240, 420},
		})
	})
	if flowErr != nil {
		t.Fatal(flowErr)
	}
	return flowVal
}

func isoLineEnd() []geom.Polygon {
	return []geom.Polygon{geom.R(-90, -2200, 90, 0).Polygon()}
}

func TestNewFlowCalibrates(t *testing.T) {
	f := testFlow(t)
	if f.Threshold < 0.1 || f.Threshold > 0.6 {
		t.Errorf("threshold = %f", f.Threshold)
	}
	if len(f.Rules.Bias.Entries) != 2 {
		t.Errorf("bias entries = %d", len(f.Rules.Bias.Entries))
	}
	if f.Ambit < 500 || f.Ambit > 1000 {
		t.Errorf("ambit = %d", f.Ambit)
	}
}

func TestNewFlowRejectsBadOptics(t *testing.T) {
	s := optics.Default()
	s.NA = 2.0
	if _, err := NewFlow(Options{Optics: s, SkipBiasTable: true}); err == nil {
		t.Error("bad optics should fail")
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{L0: "L0-none", L1: "L1-rules", L2: "L2-model-1pass", L3: "L3-model-full"}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("Level %d = %q", int(l), l.String())
		}
	}
	if len(Levels) != 4 {
		t.Errorf("Levels = %v", Levels)
	}
}

func TestCorrectLevels(t *testing.T) {
	f := testFlow(t)
	target := isoLineEnd()
	// L0 is identity.
	res, conv, err := f.Correct(target, L0)
	if err != nil {
		t.Fatal(err)
	}
	if conv != nil || len(res.Corrected) != 1 {
		t.Error("L0 should pass through")
	}
	// L1 changes geometry.
	res1, _, err := f.Correct(target, L1)
	if err != nil {
		t.Fatal(err)
	}
	if geom.RegionFromPolygons(res1.Corrected...).Xor(geom.RegionFromPolygons(target...)).Empty() {
		t.Error("L1 produced the identity")
	}
	// L2/L3 run the model engine; L3 must also place SRAFs for an
	// isolated line.
	res2, conv2, err := f.Correct(target, L2)
	if err != nil {
		t.Fatal(err)
	}
	if conv2 == nil || conv2.Iterations != 1 {
		t.Errorf("L2 iterations = %v", conv2)
	}
	if len(res2.SRAFs) != 0 {
		t.Error("L2 should not place SRAFs")
	}
	res3, conv3, err := f.Correct(target, L3)
	if err != nil {
		t.Fatal(err)
	}
	if conv3 == nil || conv3.Iterations < 2 {
		t.Errorf("L3 iterations = %+v", conv3)
	}
	if len(res3.SRAFs) == 0 {
		t.Error("L3 should place SRAFs on an isolated line")
	}
	// Empty target rejected.
	if _, _, err := f.Correct(nil, L2); err == nil {
		t.Error("empty target should fail")
	}
}

func TestAssessFidelityOrdering(t *testing.T) {
	f := testFlow(t)
	target := isoLineEnd()
	imps := map[Level]Impact{}
	for _, l := range Levels {
		imp, err := f.Assess(target, l)
		if err != nil {
			t.Fatalf("level %v: %v", l, err)
		}
		imps[l] = imp
	}
	// The headline result: correction reduces EPE, model beats rules,
	// L3 is at least as good as L2.
	if !(imps[L1].EPE.RMS < imps[L0].EPE.RMS) {
		t.Errorf("L1 RMS %.2f !< L0 RMS %.2f", imps[L1].EPE.RMS, imps[L0].EPE.RMS)
	}
	if !(imps[L3].EPE.RMS < imps[L0].EPE.RMS/2) {
		t.Errorf("L3 RMS %.2f should be < half of L0 %.2f", imps[L3].EPE.RMS, imps[L0].EPE.RMS)
	}
	if imps[L3].EPE.RMS > imps[L2].EPE.RMS+1 {
		t.Errorf("L3 RMS %.2f worse than L2 %.2f", imps[L3].EPE.RMS, imps[L2].EPE.RMS)
	}
	// The cost side: mask data grows with level.
	if !(imps[L3].Data.GDSBytes > imps[L0].Data.GDSBytes) {
		t.Error("L3 mask data should exceed L0")
	}
	if !(imps[L3].Data.Shots > imps[L0].Data.Shots) {
		t.Error("L3 shots should exceed L0")
	}
	// No mask rule violations at any level.
	for l, imp := range imps {
		if imp.MRCViolations != 0 {
			t.Errorf("level %v: %d MRC violations", l, imp.MRCViolations)
		}
	}
}

func TestCorrectWindowedMatchesUnwindowed(t *testing.T) {
	f := testFlow(t)
	// A small array spanning two tiles.
	var target []geom.Polygon
	for i := 0; i < 6; i++ {
		x := geom.Coord(i) * 600
		target = append(target, geom.R(x, 0, x+180, 2200).Polygon())
	}
	res, st, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiles < 2 {
		t.Fatalf("tiles = %d, want >= 2", st.Tiles)
	}
	// Polygons crossing tile boundaries are cut, so the count can grow,
	// but never shrink.
	if len(res.Corrected) < len(target) {
		t.Errorf("corrected %d of %d polygons", len(res.Corrected), len(target))
	}
	if st.WorstRMS > 8 {
		t.Errorf("worst tile RMS = %.2f", st.WorstRMS)
	}
	// Tile boundaries must not lose or duplicate polygons: areas are
	// within MRC bias of the originals.
	orig := geom.RegionFromPolygons(target...)
	corr := geom.RegionFromPolygons(res.Corrected...)
	if corr.Empty() {
		t.Fatal("empty corrected region")
	}
	if !corr.Subtract(orig.Grow(f.MRC.MaxBias)).Empty() {
		t.Error("corrected output exceeds bias envelope")
	}
	// L0/L1 paths.
	res0, _, err := f.CorrectWindowed(target, L0, 2500, false)
	if err != nil || len(res0.Corrected) != len(target) {
		t.Errorf("L0 windowed: %v", err)
	}
	if _, _, err := f.CorrectWindowed(target, L2, 100, false); err == nil {
		t.Error("tile below ambit should fail")
	}
	if _, _, err := f.CorrectWindowed(nil, L2, 2500, false); err == nil {
		t.Error("empty target should fail")
	}
}

func TestCorrectWindowedParallelMatchesSerial(t *testing.T) {
	f := testFlow(t)
	var target []geom.Polygon
	for i := 0; i < 4; i++ {
		x := geom.Coord(i) * 700
		target = append(target, geom.R(x, 0, x+180, 1800).Polygon())
	}
	resS, _, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	resP, _, err := f.CorrectWindowed(target, L2, 2500, true)
	if err != nil {
		t.Fatal(err)
	}
	a := geom.RegionFromPolygons(resS.Corrected...)
	b := geom.RegionFromPolygons(resP.Corrected...)
	if !a.Xor(b).Empty() {
		t.Error("parallel tiling changed the result")
	}
}

func TestMinPitchForSpecImprovesWithLevel(t *testing.T) {
	f := testFlow(t)
	pitches := []geom.Coord{360, 430, 520, 640, 800}
	min0, res0, err := f.MinPitchForSpec(180, pitches, 0.10, L0)
	if err != nil {
		t.Fatal(err)
	}
	min3, res3, err := f.MinPitchForSpec(180, pitches, 0.10, L3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res0) != len(pitches) || len(res3) != len(pitches) {
		t.Fatal("result length mismatch")
	}
	// OPC must not lose ground, and should usually gain.
	if min3 == 0 {
		t.Fatal("L3 met spec nowhere")
	}
	if min0 != 0 && min3 > min0 {
		t.Errorf("L3 min pitch %d worse than L0 %d", min3, min0)
	}
	// Level 3 passes at least as many pitches.
	count := func(rs []PitchResult) int {
		n := 0
		for _, r := range rs {
			if r.InSpec {
				n++
			}
		}
		return n
	}
	if count(res3) < count(res0) {
		t.Errorf("L3 passes %d pitches, L0 passes %d", count(res3), count(res0))
	}
	// Validation.
	if _, _, err := f.MinPitchForSpec(0, pitches, 0.1, L0); err == nil {
		t.Error("zero cd should fail")
	}
	if _, _, err := f.MinPitchForSpec(180, []geom.Coord{100}, 0.1, L0); err == nil {
		t.Error("pitch < cd should fail")
	}
}

func TestAnalyzeHierarchyImpact(t *testing.T) {
	// Two masters: one placed in identical contexts (1 variant), one in
	// distinct contexts (2 variants).
	ly := layout.New("h")
	a := ly.MustCell("A")
	a.AddRect(layout.Poly, geom.R(0, 0, 180, 1000))
	b := ly.MustCell("B")
	b.AddRect(layout.Poly, geom.R(0, 0, 180, 1000))
	top := ly.MustCell("TOP")
	// Two A placements with the same empty neighborhood.
	top.PlaceAt(a, geom.Pt(0, 0))
	top.PlaceAt(a, geom.Pt(50000, 0))
	// Two B placements: one isolated, one next to extra geometry.
	top.PlaceAt(b, geom.Pt(100000, 0))
	top.PlaceAt(b, geom.Pt(150000, 0))
	top.AddRect(layout.Poly, geom.R(150400, 0, 150580, 1000))
	ly.SetTop(top)

	imp, err := AnalyzeHierarchyImpact(ly, layout.Poly, 800)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Masters != 2 {
		t.Fatalf("masters = %d", imp.Masters)
	}
	if imp.Placements != 4 {
		t.Errorf("placements = %d", imp.Placements)
	}
	if imp.VariantsPerMaster["A"] != 1 {
		t.Errorf("A variants = %d, want 1", imp.VariantsPerMaster["A"])
	}
	if imp.VariantsPerMaster["B"] != 2 {
		t.Errorf("B variants = %d, want 2", imp.VariantsPerMaster["B"])
	}
	if imp.TotalVariants != 3 {
		t.Errorf("total variants = %d", imp.TotalVariants)
	}
	if ef := imp.ExpansionFactor(); ef != 1.5 {
		t.Errorf("expansion = %f", ef)
	}
}

func TestAnalyzeHierarchyImpactDenseBlock(t *testing.T) {
	// A generated block: interior cells of the same master in the same
	// row context collapse to few variants; the ratio must stay well
	// below full flattening.
	ly := layout.New("blk")
	lib, err := gen.BuildCellLib(ly, gen.Tech180())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	block, err := gen.BuildBlock(ly, lib, "B", 3, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	ly.SetTop(block)
	imp, err := AnalyzeHierarchyImpact(ly, layout.Poly, 700)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Placements != 24 {
		t.Errorf("placements = %d", imp.Placements)
	}
	if imp.TotalVariants <= imp.Masters {
		t.Error("random neighborhoods should force some variants")
	}
	if imp.TotalVariants > imp.Placements {
		t.Error("variants cannot exceed placements")
	}
}

func TestHierarchyImpactMirrorDistinct(t *testing.T) {
	// A mirrored placement with an asymmetric neighbor is a different
	// context than the unmirrored one.
	ly := layout.New("m")
	a := ly.MustCell("A")
	a.AddRect(layout.Poly, geom.R(0, 0, 180, 1000))
	top := ly.MustCell("TOP")
	top.PlaceAt(a, geom.Pt(0, 0))
	mx := geom.Xform{Orient: geom.MX, Mag: 1, Offset: geom.Pt(50000, 1000)}
	top.Place(a, mx)
	// Asymmetric neighbor above each placement.
	top.AddRect(layout.Poly, geom.R(0, 1400, 180, 1800))
	top.AddRect(layout.Poly, geom.R(50000, 1400, 50180, 1800))
	ly.SetTop(top)
	imp, err := AnalyzeHierarchyImpact(ly, layout.Poly, 800)
	if err != nil {
		t.Fatal(err)
	}
	// In master-local frames the neighbor sits above one and below the
	// other: two variants.
	if imp.VariantsPerMaster["A"] != 2 {
		t.Errorf("mirrored contexts should differ: %d variants", imp.VariantsPerMaster["A"])
	}
}

func TestBuildHotspotLibraryAndScreen(t *testing.T) {
	f := testFlow(t)
	// A target with a genuine bridge risk: a 60 nm drawn space between
	// wide lines, uncorrected.
	bad := []geom.Polygon{
		geom.R(-460, -2000, -30, 2000).Polygon(),
		geom.R(30, -2000, 460, 2000).Polygon(),
	}
	hl, err := f.BuildHotspotLibrary(bad, L0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if hl.Lib.Len() == 0 {
		t.Fatal("no hotspot patterns captured")
	}
	// The same configuration placed elsewhere in a new design is found
	// with zero simulation.
	var newDesign []geom.Polygon
	for _, p := range bad {
		newDesign = append(newDesign, p.Translate(geom.Pt(50000, 30000)))
	}
	newDesign = append(newDesign, geom.R(0, 0, 180, 4000).Polygon()) // innocuous
	matches := hl.Screen(newDesign)
	if len(matches) == 0 {
		t.Error("known hotspot configuration not found in new design")
	}
	for _, m := range matches {
		if m.At.X < 40000 {
			t.Errorf("match anchored on innocuous geometry: %v", m)
		}
	}
}

func TestCorrectCellsHierarchical(t *testing.T) {
	f := testFlow(t)
	ly := layout.New("hc")
	bit := ly.MustCell("BIT")
	bit.AddRect(layout.Poly, geom.R(0, 0, 180, 2000))
	bit.AddRect(layout.Poly, geom.R(500, 0, 680, 2000))
	top := ly.MustCell("TOP")
	top.PlaceArray(bit, geom.Identity(), 16, 4, geom.Pt(1500, 0), geom.Pt(0, 3000))
	ly.SetTop(top)

	rep, err := f.CorrectCells(ly, layout.Poly, L2)
	if err != nil {
		t.Fatal(err)
	}
	// One master corrected (top has no poly of its own).
	if len(rep.Cells) != 1 || rep.Cells[0].Cell != "BIT" {
		t.Fatalf("report: %+v", rep)
	}
	if rep.SharedMasters != 1 {
		t.Errorf("shared masters = %d", rep.SharedMasters)
	}
	// The OPC layer now exists on the master and flattens to 64 copies.
	out := layout.OPCLayer(layout.Poly)
	if len(bit.Shapes[out]) == 0 {
		t.Fatal("no OPC output on master")
	}
	flat := layout.Flatten(top, out)
	if len(flat) != 64*len(bit.Shapes[out]) {
		t.Errorf("flattened OPC figures = %d", len(flat))
	}
	cmp, err := CompareOPCData(ly, layout.Poly)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.StoredFigures != len(bit.Shapes[out]) {
		t.Errorf("stored = %d", cmp.StoredFigures)
	}
	if cmp.ExpandedFigures != int64(64*len(bit.Shapes[out])) {
		t.Errorf("expanded = %d", cmp.ExpandedFigures)
	}
}

func TestCorrectCellsNoTop(t *testing.T) {
	f := testFlow(t)
	ly := layout.New("x")
	if _, err := f.CorrectCells(ly, layout.Poly, L1); err == nil {
		t.Error("no top should fail")
	}
	if _, err := CompareOPCData(ly, layout.Poly); err == nil {
		t.Error("no top should fail")
	}
}
