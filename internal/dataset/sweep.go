package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goopc/internal/core"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/opc"
	"goopc/internal/optics"
	"goopc/internal/resist"
)

// CorrectOut is what the bulk-batch correction seam returns for one
// sample: the corrected mask geometry plus the solve's convergence
// accounting (an opcd job report's totals, for remote solves).
type CorrectOut struct {
	Mask      []geom.Polygon
	SRAFs     []geom.Polygon
	Iters     int
	RMS       float64
	Converged bool
}

// Options configures a sweep run.
type Options struct {
	// Flows returns the calibrated flow for an optics point. Nil uses
	// the package cache over core.NewFlow (experiment-compatible
	// settings). The flow also serves metrology (final image, contours,
	// EPE) for remotely solved samples.
	Flows func(OpticsSpec) (*core.Flow, error)
	// Correct, when non-nil, replaces the in-process model solve — the
	// bulk-batch seam cmd/datasetgen's remote mode plugs an opcd client
	// into. Per-fragment biases are then recovered geometrically from
	// the returned mask. Manifests written this way are marked
	// Mode "remote" and are not locally regenerable (the cluster runs
	// the tiled scheduler, not the untiled sample path).
	Correct func(ctx context.Context, s Sample, target []geom.Polygon) (CorrectOut, error)
	// Log, when non-nil, receives one progress line per shard.
	Log func(format string, args ...any)
}

func (o Options) flows() func(OpticsSpec) (*core.Flow, error) {
	if o.Flows != nil {
		return o.Flows
	}
	return DefaultFlows
}

var (
	defFlowMu sync.Mutex
	defFlows  = map[OpticsSpec]*core.Flow{}
)

// DefaultFlows builds (once per optics point) the calibrated flow a
// sweep corrects with. The rule bias table is skipped: the model levels
// zero it before SRAF seeding, so it never influences a dataset record,
// and skipping it cuts sweep setup time.
func DefaultFlows(o OpticsSpec) (*core.Flow, error) {
	defFlowMu.Lock()
	defer defFlowMu.Unlock()
	if f, ok := defFlows[o]; ok {
		return f, nil
	}
	s := optics.Default()
	s.SourceSteps = o.SourceSteps
	s.GuardNM = o.GuardNM
	f, err := core.NewFlow(core.Options{Optics: s, SkipBiasTable: true})
	if err != nil {
		return nil, err
	}
	defFlows[o] = f
	return f, nil
}

// Generate runs the sweep and writes shards plus manifest into dir,
// creating it if needed. Generation is cold by construction: sample
// flows carry no prior, so records capture the full iterative solve the
// prior will later shortcut.
func Generate(ctx context.Context, spec Spec, dir string, opt Options) (*Manifest, error) {
	t0 := time.Now()
	spec, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	samples, err := Enumerate(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	fp, err := SpecFingerprint(spec)
	if err != nil {
		return nil, err
	}
	mode := "local"
	if opt.Correct != nil {
		mode = "remote"
	}
	man := &Manifest{
		Version: manifestVersion, Spec: spec, Seed: spec.Seed, Fingerprint: fp,
		Mode: mode, FragSpec: geom.DefaultFragmentSpec(), Samples: len(samples),
	}
	for first := 0; first < len(samples); first += spec.ShardSamples {
		end := first + spec.ShardSamples
		if end > len(samples) {
			end = len(samples)
		}
		data, err := shardBytes(ctx, samples[first:end], opt)
		if err != nil {
			return nil, err
		}
		si := len(man.Shards)
		name := shardName(si)
		if err := writeFileAtomic(filepath.Join(dir, name), data); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, ShardInfo{
			File: name, FirstIndex: first, Samples: end - first, SHA256: sha256Hex(data),
		})
		mShards.Inc()
		mBytes.Add(int64(len(data)))
		if opt.Log != nil {
			opt.Log("dataset: shard %s: samples %d..%d (%d bytes)", name, first, end-1, len(data))
		}
	}
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	gSweepSeconds.Set(time.Since(t0).Seconds())
	return man, nil
}

// shardBytes produces one shard's exact file contents — the unit of
// the byte-identical regeneration contract.
func shardBytes(ctx context.Context, samples []Sample, opt Options) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range samples {
		rec, err := runSample(ctx, s, opt)
		if err != nil {
			return nil, fmt.Errorf("dataset: sample %d (%s/v%d r%d %s): %w", s.Index, s.Gen, s.Variant, s.Rep, s.Level, err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("dataset: encode sample %d: %w", s.Index, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		mSamples.Inc()
	}
	return buf.Bytes(), nil
}

// BuildTarget generates a sample's drawn geometry (deterministic in the
// sample seed). Exposed so batch submitters can ship the same target to
// a cluster that Generate would correct locally.
func BuildTarget(s Sample) ([]geom.Polygon, error) {
	entry, err := gen.FindCatalog(s.Gen)
	if err != nil {
		return nil, err
	}
	ly := layout.New(fmt.Sprintf("ds-%s-%d", s.Gen, s.Index))
	rng := rand.New(rand.NewSource(s.Seed))
	cell, layer, err := entry.Build(ly, "S", s.Variant, rng)
	if err != nil {
		return nil, err
	}
	target := layout.Flatten(cell, layer)
	if len(target) == 0 {
		return nil, fmt.Errorf("generator %q produced no geometry on its layer", s.Gen)
	}
	return target, nil
}

// runSample corrects one sample and measures its record.
func runSample(ctx context.Context, s Sample, opt Options) (Record, error) {
	target, err := BuildTarget(s)
	if err != nil {
		return Record{}, err
	}
	flow, err := opt.flows()(s.Optics)
	if err != nil {
		return Record{}, err
	}
	level := core.L3
	if s.Level == "L2" {
		level = core.L2
	}
	rec := Record{
		Index: s.Index, Gen: s.Gen, Variant: s.Variant, Rep: s.Rep,
		Level: s.Level, Optics: s.Optics, Seed: s.Seed, Target: target,
	}
	var frags [][]geom.Fragment
	if opt.Correct != nil {
		out, err := opt.Correct(ctx, s, target)
		if err != nil {
			return Record{}, err
		}
		rec.Mask, rec.SRAFs = out.Mask, out.SRAFs
		rec.Iters, rec.RMS, rec.Converged = out.Iters, out.RMS, out.Converged
		frags = recoverFragments(target, out.Mask, flow.Spec, flow.MRC.MaxBias)
	} else {
		res, conv, fr, err := flow.CorrectSample(target, level)
		if err != nil {
			return Record{}, err
		}
		rec.Mask, rec.SRAFs = res.Corrected, res.SRAFs
		rec.Iters, rec.Converged = conv.Iterations, conv.Converged
		rec.RMS = conv.Final().RMS
		frags = fr
	}

	// Metrology on the final printed image: contours for the record,
	// residual EPE per fragment midpoint.
	window := opc.WindowFor(target, flow.Ambit)
	full := make([]geom.Polygon, 0, len(rec.Mask)+len(rec.SRAFs))
	full = append(append(full, rec.Mask...), rec.SRAFs...)
	im, err := flow.Sim.AerialDefocusCtx(ctx, full, window, flow.Sim.S.DefocusNM)
	if err != nil {
		return Record{}, err
	}
	defer im.Release()
	rec.Contours = resist.Contours(im, flow.Threshold, window)
	for _, fl := range frags {
		for _, f := range fl {
			mid := f.Edge.Mid()
			n := f.Edge.Normal()
			fr := FragRecord{
				Poly: f.PolyIndex, Edge: f.EdgeIndex, Frag: f.FragIndex,
				Kind: int(f.Kind), MidX: mid.X, MidY: mid.Y,
				Len: f.Edge.Len(), Bias: f.Bias,
			}
			epe, eerr := resist.EPE(im, flow.Threshold, float64(mid.X), float64(mid.Y),
				float64(n.X), float64(n.Y), 400)
			if eerr != nil {
				fr.Unresolved = true
			} else {
				fr.EPE = epe
			}
			rec.Frags = append(rec.Frags, fr)
		}
	}
	return rec, nil
}

// recoverFragments reconstructs per-fragment biases from a corrected
// mask that arrived without fragment state (the remote seam): the
// target is re-fragmented deterministically and each fragment's bias is
// the offset of the nearest parallel corrected edge covering its
// midpoint, bounded by the MRC bias clamp.
func recoverFragments(target, mask []geom.Polygon, spec geom.FragmentSpec, maxBias geom.Coord) [][]geom.Fragment {
	out := make([][]geom.Fragment, len(target))
	for pi, poly := range target {
		frags := geom.FragmentPolygon(poly, pi, spec)
		if pi < len(mask) {
			for i := range frags {
				if b, ok := recoverBias(frags[i], mask[pi], maxBias); ok {
					frags[i].Bias = b
				}
			}
		}
		out[pi] = frags
	}
	return out
}

// recoverBias measures the signed offset along the fragment's outward
// normal from its drawn edge to the nearest parallel corrected edge
// whose span covers the fragment midpoint.
func recoverBias(f geom.Fragment, corrected geom.Polygon, maxBias geom.Coord) (geom.Coord, bool) {
	mid := f.Edge.Mid()
	n := f.Edge.Normal()
	vertical := n.X != 0 // drawn edge is vertical; corrected candidates too
	best, found := geom.Coord(0), false
	for i := range corrected {
		a, b := corrected[i], corrected[(i+1)%len(corrected)]
		var off geom.Coord
		if vertical {
			if a.X != b.X {
				continue
			}
			lo, hi := minC(a.Y, b.Y), maxC(a.Y, b.Y)
			if mid.Y < lo || mid.Y > hi {
				continue
			}
			off = (a.X - mid.X) * n.X
		} else {
			if a.Y != b.Y {
				continue
			}
			lo, hi := minC(a.X, b.X), maxC(a.X, b.X)
			if mid.X < lo || mid.X > hi {
				continue
			}
			off = (a.Y - mid.Y) * n.Y
		}
		if off < -maxBias || off > maxBias {
			continue
		}
		if !found || absC(off) < absC(best) {
			best, found = off, true
		}
	}
	return best, found
}

func minC(a, b geom.Coord) geom.Coord {
	if a < b {
		return a
	}
	return b
}

func maxC(a, b geom.Coord) geom.Coord {
	if a > b {
		return a
	}
	return b
}

func absC(a geom.Coord) geom.Coord {
	if a < 0 {
		return -a
	}
	return a
}
