package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"goopc/internal/core"
	"goopc/internal/experiments"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/mask"
	"goopc/internal/optics"
	"goopc/internal/patlib"
)

// env is what one run of one workload is made from.
type env struct {
	seed int64
	// procs is P: GOMAXPROCS, the server's worker count and the number
	// of closed-loop clients.
	procs int
	// tmp is a scratch directory inside the checkout, removed at exit.
	tmp string
	// inject, when set, arms every flow the workload builds with this
	// fault plan (the faults grammar). Only -selftest sets it.
	inject string
}

// offset is what the seed does to a layout: it places the whole block at
// a seeded position on the 2 nm mask grid. The layout generators
// themselves run from genSeed, because at the sizes one rep may have
// here (a dozen wires) a freshly drawn layout changes the work by a
// quarter and the worst-tile EPE threefold, which no bound could tell
// from a regression. Correction is exact under integer translation as
// long as no coordinate turns negative, so offsets are drawn from the
// positive quadrant and every seed gives the same counts and the same
// cost on different coordinates. (Across an axis it is not exact: a
// block moved to negative coordinates converges in 97 instead of 99
// iterations on the std-cell block. README.md records the finding.)
func (e env) offset() geom.Point {
	rng := rand.New(rand.NewSource(e.seed))
	return geom.Pt(geom.Coord(2*rng.Intn(100001)), geom.Coord(2*rng.Intn(100001)))
}

// genSeed seeds the layout generators of every workload.
const genSeed = 1

// workload is one named set of inputs.
type workload struct {
	name, why string
	// serialReps is how many extra reps the traced run makes at
	// GOMAXPROCS=1, the single-threaded baseline of core.parallel_eff.
	serialReps int
	setup      func(e env) (instance, error)
}

// instance is a workload that has been set up and can run operations.
type instance interface {
	// clients is the number of closed-loop callers op is run from.
	clients() int
	// round is the number of consecutive operations that hold every
	// kind of operation once; a window is a whole number of rounds.
	round() int
	// reference computes, untimed, whatever op's results are checked
	// against that set-up did not already produce.
	reference() error
	// op runs operation number i as client tid and checks its output.
	op(i, tid int, tr *tracer) opResult
	// probe returns what the per-layer probes are cut from.
	probe() probeInput
	// counters reads the workload's own running counts; a traced run
	// reports their increase per operation.
	counters() map[string]float64
	// extra adds the workload's own one-off per-layer figures.
	extra(m map[string]float64)
	close() error
}

// opResult is one rep or job as its caller saw it.
type opResult struct {
	kind     string // job type; empty for a rep
	wall     float64
	err      error
	rms      float64
	outBytes int
	stats    core.TileStats
	data     mask.DataStats
	inBytes  int
	// traced says whether the operation ran with harness spans on.
	traced bool
	// aux holds the parts of a job's latency that are not harness spans.
	aux map[string]float64
}

var workloads = []workload{
	{
		name:       "routed_cold",
		why:        "16 um routed metal1 block at L3: no tile repeats, so imaging and model iterations do all the work and the reuse rungs none",
		serialReps: 3,
		setup: func(e env) (instance, error) {
			return setupLib(e, libSpec{layer: layout.Metal1, tileAmbits: 4, build: buildRouted(16000, 12)})
		},
	},
	{
		name: "sram_dedup",
		why:  "32x32 SRAM array tiled at the cell height: 97% of tile results come from in-run dedup, so tiling and geometry work show beside imaging",
		setup: func(e env) (instance, error) {
			return setupLib(e, libSpec{layer: layout.Poly, tile: 2520, build: buildSRAM(32, 32)})
		},
	},
	{
		name: "patlib_fill_warm",
		why:  "std-cell block rerun from a pattern library filled in set-up: every tile is an exact hit and nothing is imaged, so load, lookup, geometry and GDS are the whole cost",
		setup: func(e env) (instance, error) {
			return setupLib(e, libSpec{layer: layout.Poly, tileAmbits: 4, build: buildStdBlock(2, 6), patlib: true})
		},
	},
	{
		name:  "opcd_jobs",
		why:   "P closed-loop clients upload small GDS jobs of four types to an in-process opcd over loopback HTTP: where a user of the service stands",
		setup: setupOpcd,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newFlow calibrates the flow every workload corrects with: the optics
// of experiments.Default(), everything optional off.
func newFlow(e env) (*core.Flow, error) {
	cfg := experiments.Default()
	s := optics.Default()
	s.SourceSteps = cfg.SourceSteps
	s.GuardNM = cfg.GuardNM
	f, err := core.NewFlow(core.Options{Optics: s, BiasSpaces: cfg.BiasSpaces})
	if err != nil {
		return nil, err
	}
	if e.inject != "" {
		if f.FaultPlan, err = faults.Parse(e.inject); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// builder draws one block into ly and returns it.
type builder func(ly *layout.Layout) (*layout.Cell, error)

func buildRouted(dim geom.Coord, nets int) builder {
	return func(ly *layout.Layout) (*layout.Cell, error) {
		return gen.BuildRoutedBlock(ly, gen.Tech180(), "ROUTED", dim, dim, nets, rand.New(rand.NewSource(genSeed)))
	}
}

func buildSRAM(rows, cols int) builder {
	return func(ly *layout.Layout) (*layout.Cell, error) {
		return gen.BuildSRAM(ly, gen.Tech180(), "SRAM", rows, cols)
	}
}

func buildStdBlock(rows, cols int) builder {
	return func(ly *layout.Layout) (*layout.Cell, error) {
		lib, err := gen.BuildCellLib(ly, gen.Tech180())
		if err != nil {
			return nil, err
		}
		return gen.BuildBlock(ly, lib, "BLOCK", rows, cols, rand.New(rand.NewSource(genSeed)))
	}
}

// encodeGDS draws the block, places it at the seeded offset under a new
// top cell and returns the GDS stream: the only thing the program under
// test gets to see.
func encodeGDS(b builder, at geom.Point) ([]byte, error) {
	ly := layout.New("bench")
	blk, err := b(ly)
	if err != nil {
		return nil, err
	}
	top, err := ly.NewCell("BENCH_TOP")
	if err != nil {
		return nil, err
	}
	top.PlaceAt(blk, at)
	ly.SetTop(top)
	var buf bytes.Buffer
	if _, err := layout.WriteGDS(&buf, ly); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resultGDS writes corrected polygons the way opcd and opcflow do, so
// that a direct run and a served job can be compared byte for byte.
func resultGDS(polys []geom.Polygon, l layout.Layer) ([]byte, error) {
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	for _, p := range polys {
		cell.AddPolygon(layout.OPCLayer(l), p)
	}
	out.SetTop(cell)
	var buf bytes.Buffer
	if _, err := layout.WriteGDS(&buf, out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// libSpec describes a library workload: the user pipeline
// ReadGDS -> Flatten -> CorrectWindowed(L3) -> mask.Analyze -> WriteGDS
// on in-memory GDS bytes.
type libSpec struct {
	layer layout.Layer
	// tile is the tile size in nm; tileAmbits, when set, gives it in
	// optical ambits instead.
	tile       geom.Coord
	tileAmbits geom.Coord
	build      builder
	// patlib makes set-up fill a fresh pattern library with one run and
	// every operation a warm rerun that reopens it.
	patlib bool
}

type libInst struct {
	spec libSpec
	flow *core.Flow
	in   []byte
	tile geom.Coord
	// digest and stats are what every operation must reproduce: those
	// of set-up's own run (the fill run's digest for a pattern library,
	// whose warm reruns must agree with each other on the stats).
	digest [32]byte
	stats  *core.TileStats
	fill   opResult // the fill run of a pattern library
	target []geom.Polygon
	mask   []geom.Polygon
}

func setupLib(e env, spec libSpec) (instance, error) {
	f, err := newFlow(e)
	if err != nil {
		return nil, err
	}
	in, err := encodeGDS(spec.build, e.offset())
	if err != nil {
		return nil, err
	}
	w := &libInst{spec: spec, flow: f, in: in, tile: spec.tile}
	if spec.tileAmbits > 0 {
		w.tile = spec.tileAmbits * f.Ambit
	}
	if spec.patlib {
		dir, err := os.MkdirTemp(e.tmp, "patlib-")
		if err != nil {
			return nil, err
		}
		f.PatternLibPath = filepath.Join(dir, "lib.jsonl")
	}
	// The first run warms the kernel cache and the FFT pools; with a
	// pattern library it is the fill run.
	r, digest := w.run(0, 0, nil)
	if r.err != nil {
		return nil, fmt.Errorf("first run: %w", r.err)
	}
	w.digest = digest
	if spec.patlib {
		w.fill = r
		if r.stats.LibAppends == 0 {
			return nil, fmt.Errorf("fill run appended nothing to the pattern library")
		}
	} else {
		w.stats = &r.stats
	}
	return w, nil
}

func (w *libInst) clients() int                 { return 1 }
func (w *libInst) round() int                   { return 1 }
func (w *libInst) reference() error             { return nil }
func (w *libInst) counters() map[string]float64 { return nil }

func (w *libInst) close() error {
	if w.spec.patlib {
		return os.RemoveAll(filepath.Dir(w.flow.PatternLibPath))
	}
	return nil
}

// run is one rep: the whole user pipeline, with a span around each call
// into a layer. The digest is taken after the clock stops.
func (w *libInst) run(i, tid int, tr *tracer) (opResult, [32]byte) {
	r := opResult{inBytes: len(w.in)}
	t0 := time.Now()
	root := tr.start("rep", nil, i, tid)

	s := tr.start("gds.read", root, i, tid)
	ly, err := layout.ReadGDS(bytes.NewReader(w.in))
	s.end()
	if err != nil {
		r.err = err
		return r, [32]byte{}
	}

	s = tr.start("layout.flatten", root, i, tid)
	target := layout.Flatten(ly.Top, w.spec.layer)
	s.end()

	s = tr.start("core.correct", root, i, tid)
	res, st, err := w.flow.CorrectWindowed(target, core.L3, w.tile, true)
	s.end()
	if err != nil {
		r.err = err
		return r, [32]byte{}
	}

	s = tr.start("mask.analyze", root, i, tid)
	r.data = mask.Analyze(res.AllMask(), w.flow.Writer)
	s.end()

	s = tr.start("gds.write", root, i, tid)
	out, err := resultGDS(res.Corrected, w.spec.layer)
	s.end()
	root.end()
	r.wall = time.Since(t0).Seconds()
	if err != nil {
		r.err = err
		return r, [32]byte{}
	}
	r.stats, r.rms, r.outBytes = st, st.WorstRMS, len(out)
	w.target, w.mask = target, res.Corrected
	return r, sha256.Sum256(out)
}

func (w *libInst) op(i, tid int, tr *tracer) opResult {
	r, digest := w.run(i, tid, tr)
	if r.err != nil {
		return r
	}
	if w.stats == nil {
		w.stats = &r.stats // the first warm rerun
	}
	r.err = w.check(r.stats, digest)
	return r
}

// check holds a rep to set-up's result: the same bytes, the same tile
// accounting, no tile retried or degraded, and for a warm rerun nothing
// solved and nothing missed.
func (w *libInst) check(st core.TileStats, digest [32]byte) error {
	if digest != w.digest {
		return fmt.Errorf("result digest %x differs from set-up's %x", digest[:6], w.digest[:6])
	}
	if a, b := tileCounts(st), tileCounts(*w.stats); a != b {
		return fmt.Errorf("tile counts %v differ from the first run's %v", a, b)
	}
	if n := st.DegradedRules + st.DegradedUncorrected + st.Retries; n != 0 {
		return fmt.Errorf("%d tiles retried or degraded", n)
	}
	if w.spec.patlib && (st.CorrectedTiles != 0 || st.LibMisses != 0 || st.LibExactTiles == 0) {
		return fmt.Errorf("warm rerun solved %d tiles, missed %d, hit %d", st.CorrectedTiles, st.LibMisses, st.LibExactTiles)
	}
	return nil
}

// tileCounts is the part of TileStats that must repeat exactly.
func tileCounts(st core.TileStats) [10]int {
	return [10]int{st.Tiles, st.EmptyPruned, st.Corrected, st.CorrectedTiles, st.ReusedTiles,
		st.CleanTiles, st.Iterations, st.LibExactTiles, st.LibMisses, st.LibAppends}
}

func (w *libInst) probe() probeInput {
	return probeInput{flow: w.flow, target: w.target, tile: w.tile, mask: w.mask}
}

func (w *libInst) extra(m map[string]float64) {
	if !w.spec.patlib {
		return
	}
	path := w.flow.PatternLibPath
	if fi, err := os.Stat(path); err == nil {
		m["patlib.lib_bytes"] = float64(fi.Size())
	}
	m["patlib.appends"] = float64(w.fill.stats.LibAppends)
	m["patlib.fill_wall_s"] = w.fill.wall
	var open []float64
	for k := 0; k < 5; k++ {
		var lib *patlib.Library
		var err error
		open = append(open, timeMS(func() {
			if lib, err = patlib.Open(path, true); err == nil {
				_ = lib.Session(lib.Fingerprint())
			}
		}))
		if err != nil {
			return
		}
		lib.Close()
	}
	m["patlib.open_ms"] = median(open)
	// What the library costs the run that fills it: the fill run against
	// a run of the same layout with the library off.
	plain := *w.flow
	plain.PatternLibPath = ""
	var err error
	plainMS := timeMS(func() { _, _, err = plain.CorrectWindowed(w.target, core.L3, w.tile, true) })
	if err == nil {
		m["patlib.append_overhead_s"] = w.fill.stats.Seconds - plainMS/1e3
	}
}
