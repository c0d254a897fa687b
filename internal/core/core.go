// Package core implements the paper's subject matter: the OPC adoption
// flow. It wires the substrates together — layout in, calibrated
// imaging model, rule-based or model-based correction at a selectable
// adoption level, post-OPC verification, mask data preparation — and
// quantifies what each correction level costs and buys: print fidelity,
// mask data volume, hierarchy survival, design-rule headroom, and flow
// runtime. Every experiment in DESIGN.md drives this package.
package core

import (
	"fmt"
	"time"

	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/mask"
	"goopc/internal/obs"
	"goopc/internal/obs/trace"
	"goopc/internal/opc"
	"goopc/internal/opc/model"
	"goopc/internal/opc/rules"
	"goopc/internal/optics"
	"goopc/internal/orc"
	"goopc/internal/patlib"
	"goopc/internal/prior"
	"goopc/internal/resist"
)

// Level is the OPC adoption level, the paper's central knob.
type Level int

// Adoption levels.
const (
	// L0: no correction — the drawn data goes to the mask.
	L0 Level = iota
	// L1: rule-based OPC — bias tables, hammerheads, serifs.
	L1
	// L2: model-based OPC, single correction pass.
	L2
	// L3: model-based OPC iterated to convergence, with scattering bars.
	L3
)

// Levels lists all adoption levels in order.
var Levels = []Level{L0, L1, L2, L3}

func (l Level) String() string {
	switch l {
	case L0:
		return "L0-none"
	case L1:
		return "L1-rules"
	case L2:
		return "L2-model-1pass"
	case L3:
		return "L3-model-full"
	}
	return fmt.Sprintf("L%d", int(l))
}

// Flow is a calibrated correction flow: one exposure setup, one resist
// threshold, one rule deck, ready to correct and assess layouts at any
// adoption level.
type Flow struct {
	Sim       *optics.Simulator
	Threshold float64
	// Rules is the rule-based recipe (L1); its bias table is built
	// during flow setup.
	Rules rules.Recipe
	// ModelIter1 and ModelIterFull are the iteration budgets of L2 and
	// L3.
	ModelIter1, ModelIterFull int
	// Damping is the model-OPC feedback gain.
	Damping float64
	// Spec is the shared fragmentation recipe.
	Spec geom.FragmentSpec
	// MRC clamps all corrections.
	MRC opc.MRC
	// Checker verifies the result; Writer and MaskRules cost it.
	Checker   *orc.Checker
	Writer    mask.WriterModel
	MaskRules mask.MRCRules
	// Ambit is the optical interaction distance used for windows (DBU).
	Ambit geom.Coord
	// TilePasses is the number of context passes CorrectWindowed runs
	// for iterated model correction (0 selects the default of 2).
	TilePasses int
	// ConvergeEps is the per-iteration EPE-RMS improvement (nm) below
	// which tiled model correction stops iterating (model.Engine.RMSEps).
	// Zero disables the early exit and always spends the full budget.
	ConvergeEps float64
	// DisableDedup and DisableDirtySkip turn off the tile-deduplication
	// and clean-tile-skip scheduler optimizations; both are exact, so
	// the switches exist for verification and benchmarking, not safety.
	DisableDedup, DisableDirtySkip bool
	// Span, when non-nil, receives child spans for each CorrectWindowed
	// context pass (obs phase tracing). Set it from the driving tool
	// before a run; nil (the default) traces nothing. Not for use from
	// concurrent CorrectWindowed calls on the same Flow.
	Span *obs.Span
	// Progress, when non-nil, receives tile-completion events from
	// CorrectWindowedCtx: once when each pass starts (DoneTiles 0) and
	// once per resolved tile batch afterwards. The callback runs on
	// scheduler worker goroutines concurrently, so it must be
	// concurrency-safe and fast (the opcd job server feeds per-job
	// gauges and SSE streams from it).
	Progress func(ProgressEvent)
	// Tracer, when non-nil, is the flight recorder every tiled run emits
	// its tile-lifecycle events into (DESIGN.md 5h): scheduling, dedup
	// and pattern-library hits, solve begin/end with iterations and RMS,
	// retries, timeouts, degradations and checkpoint writes, per worker.
	// Nil (the default) records nothing at no measurable cost. Safe for
	// concurrent runs — emit is lock-free — though one recorder then
	// interleaves both runs' timelines.
	Tracer *trace.Recorder
	// AnchorCD and AnchorPitch record the calibration anchor.
	AnchorCD, AnchorPitch geom.Coord

	// Resilience knobs (see DESIGN.md 5e). Deadline, when positive,
	// bounds the whole CorrectWindowedCtx run; TileTimeout bounds each
	// per-tile engine attempt. TileRetries is the number of re-attempts
	// after a failed/panicked/timed-out tile attempt before the
	// degradation ladder engages (model -> rules -> uncorrected);
	// RetryBackoff is the base context-aware sleep between attempts
	// (doubled per retry).
	Deadline     time.Duration
	TileTimeout  time.Duration
	TileRetries  int
	RetryBackoff time.Duration
	// FaultPlan, when non-nil, arms deterministic fault injection at
	// the scheduler's probe sites ("tile", "rules") — the test harness
	// for every recovery path, also reachable via opcflow -inject.
	FaultPlan *faults.Plan
	// CheckpointPath, when set, makes CorrectWindowedCtx persist
	// completed canonical tile-class results there (atomically, at most
	// every CheckpointEvery, default 30s) and always once at run end —
	// including cancelled runs, so a SIGINT costs no completed work.
	// Resume, when non-nil, seeds the run with a previously written
	// checkpoint: classes already present are restored instead of
	// corrected. The checkpoint fingerprint must match the run.
	CheckpointPath  string
	CheckpointEvery time.Duration
	Resume          *Checkpoint

	// Cross-run pattern library (DESIGN.md 5f). PatLib, when non-nil, is
	// a shared open library — the opcd server injects one library for
	// all jobs. Otherwise, when PatternLibPath is set,
	// CorrectWindowedCtx opens the store there for the duration of the
	// run (creating it on first use) and closes it at run end.
	// PatLibReadOnly serves hits without persisting new solutions. A
	// library whose fingerprint does not match this flow's settings is
	// ignored for the run (every tile solves normally).
	PatLib         *patlib.Library
	PatternLibPath string
	PatLibReadOnly bool

	// ClassSolver, when non-nil, is the distributed-correction seam
	// (DESIGN.md 5i): CorrectWindowedCtx offers each pass's
	// checkpoint-missing canonical tile classes to it before the local
	// solve pool runs, and folds returned entries exactly like resumed
	// checkpoint records. Best-effort — classes the solver does not
	// return are solved locally, so a failing or empty cluster never
	// changes the output, only where the work ran.
	ClassSolver ClassSolver

	// Prior, when non-nil, is the learned initial-bias table (DESIGN.md
	// 5j): every model-OPC engine run warm-starts each fragment whose
	// D4-canonical signature the table predicts, clamped by MRC. Warm
	// starts only seed iteration 0 — the feedback loop still converges
	// on its own criteria — so warmed output agrees with a cold run to
	// within ConvergeEps while spending fewer iterations. With Prior
	// nil the flow is bit-identical to a flow without this field, and
	// checkpoints/pattern libraries written cold stay valid.
	Prior *prior.Table
}

// ProgressEvent is one live snapshot of a windowed correction run:
// which context pass is executing and how many of its tiles are
// resolved (corrected, reused, clean-skipped or resumed).
type ProgressEvent struct {
	Pass       int `json:"pass"`
	Passes     int `json:"passes"`
	DoneTiles  int `json:"done_tiles"`
	TotalTiles int `json:"total_tiles"`
}

// Options configures flow construction.
type Options struct {
	// Optics defaults to optics.Default() when zero-valued.
	Optics optics.Settings
	// AnchorCD / AnchorPitch: the dose-to-size anchor (250/500 default).
	AnchorCD, AnchorPitch geom.Coord
	// BiasSpaces are the rule-table environment bins (defaults provided).
	BiasSpaces []geom.Coord
	// SkipBiasTable skips rule-table generation (L1 then biases by 0 and
	// only applies hammerheads/serifs) — useful for fast tests.
	SkipBiasTable bool
}

// NewFlow calibrates the resist threshold against the anchor and builds
// the rule-based bias table by simulation. This mirrors a real process
// bring-up: calibrate once, correct many.
func NewFlow(o Options) (*Flow, error) {
	s := o.Optics
	if s.LambdaNM == 0 {
		s = optics.Default()
	}
	sim, err := optics.New(s)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if o.AnchorCD == 0 {
		o.AnchorCD, o.AnchorPitch = 250, 500
	}
	th, err := resist.CalibrateThreshold(sim, o.AnchorCD, o.AnchorPitch)
	if err != nil {
		return nil, fmt.Errorf("core: calibration: %w", err)
	}
	f := &Flow{
		Sim:           sim,
		Threshold:     th,
		Rules:         rules.DefaultRecipe(),
		ModelIter1:    1,
		ModelIterFull: 8,
		Damping:       0.7,
		Spec:          geom.DefaultFragmentSpec(),
		MRC:           opc.DefaultMRC(),
		Checker:       orc.NewChecker(sim, th),
		Writer:        mask.DefaultWriter(),
		MaskRules:     mask.DefaultMRCRules(),
		Ambit:         geom.Coord(2 * s.LambdaNM / s.NA),
		ConvergeEps:   0.1,
		AnchorCD:      o.AnchorCD,
		AnchorPitch:   o.AnchorPitch,
		TileRetries:   2,
		RetryBackoff:  10 * time.Millisecond,
	}
	if !o.SkipBiasTable {
		spaces := o.BiasSpaces
		if len(spaces) == 0 {
			spaces = []geom.Coord{240, 320, 420, 560, 800}
		}
		tab, err := rules.BuildBiasTable(sim, th, 180, spaces)
		if err != nil {
			return nil, fmt.Errorf("core: bias table: %w", err)
		}
		f.Rules.Bias = tab
	}
	return f, nil
}

// Correct runs the given adoption level on a flat target layer and
// returns the corrected mask plus the model convergence trace (nil for
// L0/L1).
func (f *Flow) Correct(target []geom.Polygon, level Level) (opc.Result, *model.Convergence, error) {
	if len(target) == 0 {
		return opc.Result{}, nil, fmt.Errorf("core: empty target")
	}
	switch level {
	case L0:
		return opc.Uncorrected(target), nil, nil
	case L1:
		return f.Rules.Apply(target), nil, nil
	case L2, L3:
		eng := f.modelEngine(target, level)
		window := opc.WindowFor(target, f.Ambit)
		res, conv, err := eng.Correct(target, window)
		if err != nil {
			return opc.Result{}, nil, err
		}
		if f.Prior != nil && conv.WarmStarted > 0 {
			f.Prior.ObserveWarmRun(conv.Iterations)
		}
		return res, &conv, nil
	}
	return opc.Result{}, nil, fmt.Errorf("core: unknown level %d", int(level))
}

// modelEngine builds the configured model-OPC engine for an untiled
// L2/L3 run on target, including L3 assist-feature seeding and the
// learned-prior warm-start hook (signatures are captured against the
// drawn target — the same geometry family the table was fitted over).
func (f *Flow) modelEngine(target []geom.Polygon, level Level) *model.Engine {
	eng := model.New(f.Sim, f.Threshold)
	eng.Spec = f.Spec
	eng.MRC = f.MRC
	eng.Damping = f.Damping
	if level == L2 {
		eng.MaxIter = f.ModelIter1
	} else {
		eng.MaxIter = f.ModelIterFull
		// L3 adds assist features from the rule recipe before model
		// iteration, then freezes them.
		sraf := f.Rules
		sraf.Bias = rules.BiasTable{}
		sraf.HammerExt, sraf.HammerWing, sraf.SerifSize = 0, 0, 0
		eng.SRAFs = sraf.Apply(target).SRAFs
	}
	if f.Prior != nil {
		eng.InitialBias = f.Prior.InitialBias(target)
	}
	return eng
}

// CorrectSample is Correct restricted to the model levels (L2/L3),
// additionally returning the engine's final per-polygon fragment state
// — the dataset factory's record source: each fragment carries its
// converged bias, which internal/prior fits signatures against.
func (f *Flow) CorrectSample(target []geom.Polygon, level Level) (opc.Result, model.Convergence, [][]geom.Fragment, error) {
	if len(target) == 0 {
		return opc.Result{}, model.Convergence{}, nil, fmt.Errorf("core: empty target")
	}
	if level != L2 && level != L3 {
		return opc.Result{}, model.Convergence{}, nil, fmt.Errorf("core: CorrectSample needs a model level, got %s", level)
	}
	eng := f.modelEngine(target, level)
	// Sample runs mirror the tiled production loop's stall-based early
	// exit, so recorded (and warm-rerun) iteration counts match what
	// full-layer correction would spend. Correct keeps RMSEps unset for
	// exact compatibility with untiled runs that predate ConvergeEps.
	eng.RMSEps = f.ConvergeEps
	window := opc.WindowFor(target, f.Ambit)
	res, conv, frags, err := eng.CorrectFragments(target, window)
	if err != nil {
		return opc.Result{}, model.Convergence{}, nil, err
	}
	if f.Prior != nil && conv.WarmStarted > 0 {
		f.Prior.ObserveWarmRun(conv.Iterations)
	}
	return res, conv, frags, nil
}

// Impact is what one adoption level did to one layout clip: the
// fidelity gained and the design/mask cost paid — the paper's
// title quantities.
type Impact struct {
	Level Level
	// EPE is the post-correction edge fidelity.
	EPE opc.EPEStats
	// Hotspots counts post-OPC verification failures by kind.
	Pinches, Bridges, SideLobes, EPEViolations int
	// Data is the mask-data cost of the corrected layer.
	Data mask.DataStats
	// MRCViolations counts mask-rule failures in the corrected data.
	MRCViolations int
	// CorrectSec and VerifySec are wall-clock flow costs.
	CorrectSec, VerifySec float64
	// Iterations is the model-OPC iteration count (0 for L0/L1).
	Iterations int
}

// Assess corrects a flat target at the level, verifies it, and computes
// the mask-data cost, timing each stage.
func (f *Flow) Assess(target []geom.Polygon, level Level) (Impact, error) {
	imp := Impact{Level: level}
	t0 := time.Now()
	res, conv, err := f.Correct(target, level)
	if err != nil {
		return imp, err
	}
	imp.CorrectSec = time.Since(t0).Seconds()
	if conv != nil {
		imp.Iterations = conv.Iterations
	}
	window := opc.WindowFor(target, f.Ambit)
	t1 := time.Now()
	rep, err := f.Checker.Check(target, res, window)
	if err != nil {
		return imp, err
	}
	imp.VerifySec = time.Since(t1).Seconds()
	imp.EPE = rep.EPE
	imp.Pinches = rep.Count(orc.Pinch)
	imp.Bridges = rep.Count(orc.Bridge)
	imp.SideLobes = rep.Count(orc.SideLobe)
	imp.EPEViolations = rep.Count(orc.EPEViolation)
	imp.Data = mask.Analyze(res.AllMask(), f.Writer)
	imp.MRCViolations = len(mask.CheckMRC(res.AllMask(), f.MaskRules))
	return imp, nil
}
