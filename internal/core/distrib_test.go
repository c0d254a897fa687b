package core

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"goopc/internal/geom"
	"goopc/internal/obs/trace"
)

// remoteLayout places isolated single lines three tiles apart (tile =
// 2500): each height is one equivalence class, and copies[h] is how
// many tiles the class with height h has.
func remoteLayout() ([]geom.Polygon, map[geom.Coord]int) {
	copies := map[geom.Coord]int{1500: 3, 1900: 1, 1000: 2, 1300: 1, 1700: 1}
	heights := make([]geom.Coord, 0, len(copies))
	for h := range copies {
		heights = append(heights, h)
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	var target []geom.Polygon
	for _, h := range heights {
		for k := 0; k < copies[h]; k++ {
			x := geom.Coord(200 + 7500*len(target))
			target = append(target, geom.R(x, 200, x+180, 200+h).Polygon())
		}
	}
	return target, copies
}

// TestRemoteRungServesAndFallsThrough drives the remote rung with an
// in-process class solver that answers every other request through
// SolveClass and drops the rest, on a run resumed from a partial
// checkpoint: served classes count as remote, dropped ones solve
// locally, checkpoint-covered ones are never offered, the output is
// bit-identical to a plain run and the trace reconciles.
func TestRemoteRungServesAndFallsThrough(t *testing.T) {
	target, copies := remoteLayout()
	const level, tile = L2, geom.Coord(2500)
	plain := *testFlow(t)
	want, _, err := plain.CorrectWindowed(target, level, tile, false)
	if err != nil {
		t.Fatal(err)
	}

	// A run whose solver answers nothing learns each class key's height
	// and leaves a full checkpoint.
	heightOf := map[string]geom.Coord{}
	learn := *testFlow(t)
	learn.CheckpointPath = filepath.Join(t.TempDir(), "full.ckpt")
	learn.ClassSolver = func(_ context.Context, _ Level, _ geom.Coord, reqs []ClassSolveRequest) map[string]CheckpointEntry {
		for _, req := range reqs {
			heightOf[req.Key] = req.Active[0].BBox().H()
		}
		return nil
	}
	res, st, err := learn.CorrectWindowed(target, level, tile, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Corrected, want.Corrected) || st.RemoteTiles != 0 || len(heightOf) != len(copies) {
		t.Fatalf("empty solver changed the run: remote %d, %d keys for %d classes", st.RemoteTiles, len(heightOf), len(copies))
	}
	seed, err := LoadCheckpoint(learn.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the three-member class in the resume seed.
	var resumedKey string
	for key := range seed.Passes[1] {
		if copies[heightOf[key]] == 3 {
			resumedKey = key
		} else {
			delete(seed.Passes[1], key)
		}
	}
	if seed.Entries() != 1 {
		t.Fatalf("seed holds %d entries, want 1", seed.Entries())
	}

	f := *testFlow(t)
	rec := trace.New(0)
	f.Tracer = rec
	f.Resume = seed
	offered := map[string]bool{}
	servedTiles, droppedClasses, droppedReuse := 0, 0, 0
	f.ClassSolver = func(ctx context.Context, lv Level, _ geom.Coord, reqs []ClassSolveRequest) map[string]CheckpointEntry {
		out := map[string]CheckpointEntry{}
		for i, req := range reqs {
			offered[req.Key] = true
			n := copies[heightOf[req.Key]]
			if i%2 == 1 {
				droppedClasses++
				droppedReuse += n - 1
				continue
			}
			ent, degraded, err := f.SolveClass(ctx, lv, req)
			if err != nil || degraded != "" {
				t.Errorf("remote solve of %s: %v %q", req.Key, err, degraded)
				continue
			}
			out[req.Key] = ent
			servedTiles += n
		}
		return out
	}
	res, st, err = f.CorrectWindowed(target, level, tile, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Corrected, want.Corrected) {
		t.Error("output with remote rung is not bit-identical to a plain run")
	}
	if offered[resumedKey] || len(offered) != len(copies)-1 {
		t.Errorf("offered %d classes (resumed one offered: %t), want the %d the checkpoint does not cover",
			len(offered), offered[resumedKey], len(copies)-1)
	}
	if st.ResumedTiles != 3 {
		t.Errorf("resumed tiles = %d, want 3", st.ResumedTiles)
	}
	if servedTiles == 0 || st.RemoteTiles != servedTiles {
		t.Errorf("remote tiles = %d, want the %d the solver served", st.RemoteTiles, servedTiles)
	}
	if droppedClasses == 0 || st.CorrectedTiles != droppedClasses || st.ReusedTiles != droppedReuse {
		t.Errorf("corrected/reused = %d/%d, want %d/%d (dropped classes solve locally)",
			st.CorrectedTiles, st.ReusedTiles, droppedClasses, droppedReuse)
	}
	if err := ReconcileTrace(rec.Summary(), st.ExpectedTraceCounts()); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintsPinned fixes the on-disk contract: every checkpoint
// and pattern library on disk is keyed by these hashes, so a change to
// either encoding silently orphans them all. Change the values only
// together with checkpointVersion or the patlib tag.
func TestFingerprintsPinned(t *testing.T) {
	f := testFlow(t)
	target, _ := twoIsolatedClusters()
	if got, want := f.runFingerprint(target, L3, 2500, 2), "ca1ab1eaee2854a4a447f5706b770a7d6f397d193cba876c641cc595058f97e3"; got != want {
		t.Errorf("runFingerprint = %s, want %s", got, want)
	}
	if got, want := f.patlibFingerprint(2500), "deafde2d8c729d8b69859efae6f6f36a"; got != want {
		t.Errorf("patlibFingerprint = %s, want %s", got, want)
	}
}
