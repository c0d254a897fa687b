package core

import (
	"reflect"
	"runtime"
	"testing"

	"goopc/internal/geom"
	"goopc/internal/par"
)

// twoIsolatedClusters builds two translation-identical clusters three
// tiles apart (tile = 2500): each lands alone in its tile with an empty
// halo, so the scheduler must dedup them into one equivalence class and
// find both clean in pass 2.
func twoIsolatedClusters() ([]geom.Polygon, geom.Point) {
	cluster := []geom.Polygon{
		geom.R(200, 200, 380, 1700).Polygon(),
		geom.R(600, 200, 780, 1700).Polygon(),
	}
	shift := geom.Pt(7500, 0)
	return append(append([]geom.Polygon{}, cluster...), geom.TranslatePolygons(cluster, shift)...), shift
}

func TestCorrectWindowedPrunesEmptyTiles(t *testing.T) {
	f := testFlow(t)
	target, _ := twoIsolatedClusters()
	_, st, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tiles != 2 {
		t.Errorf("scheduled tiles = %d, want 2 (only non-empty tiles)", st.Tiles)
	}
	if st.EmptyPruned < 2 {
		t.Errorf("empty pruned = %d, want >= 2", st.EmptyPruned)
	}
}

func TestCorrectWindowedDedupReuse(t *testing.T) {
	f := *testFlow(t)
	target, shift := twoIsolatedClusters()

	res, st, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedTiles != 1 || st.CorrectedTiles != 1 {
		t.Errorf("corrected/reused tiles = %d/%d, want 1/1", st.CorrectedTiles, st.ReusedTiles)
	}
	// The reused tile's result is the representative's translated.
	n := len(res.Corrected)
	if n%2 != 0 {
		t.Fatalf("odd corrected count %d", n)
	}
	first, second := res.Corrected[:n/2], res.Corrected[n/2:]
	if !reflect.DeepEqual(geom.TranslatePolygons(first, shift), second) {
		t.Error("reused tile result is not the translated representative")
	}

	// Dedup is exact: disabling it must not change the output.
	g := f
	g.DisableDedup = true
	resInd, stInd, err := g.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if stInd.ReusedTiles != 0 || stInd.CorrectedTiles != 2 {
		t.Errorf("no-dedup corrected/reused = %d/%d, want 2/0", stInd.CorrectedTiles, stInd.ReusedTiles)
	}
	if !reflect.DeepEqual(res.Corrected, resInd.Corrected) {
		t.Error("deduplicated output differs from independently corrected output")
	}
}

func TestCorrectWindowedDirtySkipExact(t *testing.T) {
	f := *testFlow(t)
	f.ModelIterFull = 4 // keep the L3 two-pass run cheap
	// Two lines coupling across the tile-0/tile-1 boundary (dirty in
	// pass 2) plus an isolated line three tiles away (clean in pass 2).
	target := []geom.Polygon{
		geom.R(2200, 200, 2380, 1700).Polygon(),
		geom.R(2620, 200, 2800, 1700).Polygon(),
		geom.R(8000, 200, 8180, 2100).Polygon(),
	}

	res, st, err := f.CorrectWindowed(target, L3, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes != 2 {
		t.Fatalf("passes = %d", st.Passes)
	}
	if st.CleanTiles < 1 {
		t.Errorf("clean tiles = %d, want >= 1 (the isolated tile)", st.CleanTiles)
	}

	g := f
	g.DisableDirtySkip = true
	resFull, stFull, err := g.CorrectWindowed(target, L3, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if stFull.CleanTiles != 0 {
		t.Errorf("disabled dirty skip still skipped %d tiles", stFull.CleanTiles)
	}
	if stFull.CorrectedTiles+stFull.ReusedTiles <= st.CorrectedTiles+st.ReusedTiles {
		t.Errorf("full pass 2 did not do more work: %d+%d vs %d+%d",
			stFull.CorrectedTiles, stFull.ReusedTiles, st.CorrectedTiles, st.ReusedTiles)
	}
	// The skip is exact: identical output.
	if !reflect.DeepEqual(res.Corrected, resFull.Corrected) {
		t.Error("dirty-tile pass 2 output differs from full pass 2")
	}
}

func TestCorrectWindowedParallelBitwiseEqual(t *testing.T) {
	f := testFlow(t)
	// Force several workers even on a single-CPU machine so the
	// completion order actually scrambles.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	var target []geom.Polygon
	for i := 0; i < 8; i++ {
		x := geom.Coord(i) * 700
		target = append(target, geom.R(x, 0, x+180, 1800).Polygon())
	}
	resS, _, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	// At every share of the compute budget another level could have
	// left the pass — nothing (the tile pass and all imaging under it
	// run on this goroutine) up to every core.
	for grant := 0; grant <= 3; grant++ {
		held := par.Acquire(3 - grant)
		if held != 3-grant {
			t.Fatalf("could not pin the budget at grant %d (got %d)", grant, held)
		}
		resP, _, err := f.CorrectWindowed(target, L2, 2500, true)
		par.Release(held)
		if err != nil {
			t.Fatal(err)
		}
		// Not just the same region: the same polygons in the same order
		// with the same vertices, so repeated runs write identical GDS.
		if !reflect.DeepEqual(resS.Corrected, resP.Corrected) {
			t.Errorf("parallel output at grant %d is not bitwise equal to serial output", grant)
		}
	}
}

func TestCorrectWindowedTileIterationStats(t *testing.T) {
	f := testFlow(t)
	target, _ := twoIsolatedClusters()
	_, st, err := f.CorrectWindowed(target, L2, 2500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations < 1 {
		t.Errorf("iterations = %d, want >= 1", st.Iterations)
	}
}
