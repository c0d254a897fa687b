package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goopc/internal/geom"
	"goopc/internal/obs/trace"
)

// checkpointVersion guards the artifact format; a loader refuses other
// versions rather than misreading them.
const checkpointVersion = 1

// ErrCheckpointMismatch marks a resume refused because the checkpoint's
// fingerprint does not match the run (different target geometry or Flow
// settings). Callers classify it as invalid input — opcflow exits 3 —
// and the opcd server restarts the job from scratch instead of failing
// it.
var ErrCheckpointMismatch = errors.New("checkpoint does not match this run's target or settings")

// CheckpointEntry is one completed tile-class result, stored at the
// canonical origin (tile core translated to (0,0)) so one entry serves
// every placement of the class — the same translation-invariance that
// powers the dedup scheduler makes checkpoints cheap.
//
// Only clean, fully-converged engine results are checkpointed. Degraded
// results (rule-based or uncorrected fallbacks after faults) are
// deliberately excluded: a resumed run re-attempts those tiles, so a
// fault-free resume reproduces the fault-free output bit-identically.
type CheckpointEntry struct {
	Polys []geom.Polygon `json:"polys"`
	RMS   float64        `json:"rms"`
	Iters int            `json:"iters"`
}

// Checkpoint is the resumable state of a windowed correction run:
// completed canonical tile-class results keyed by pass and by the
// class's exact geometry key. A run interrupted by SIGINT, a deadline,
// or a crash-and-restart resumes by skipping every class already
// present; everything else (tile enumeration, dedup, dirty filtering)
// is recomputed deterministically, so the resumed output is
// bit-identical to an uninterrupted run.
type Checkpoint struct {
	Version int `json:"version"`
	// Fingerprint ties the checkpoint to one (target, level, tile,
	// engine-settings) combination; resuming against anything else is
	// refused.
	Fingerprint string     `json:"fingerprint"`
	Level       string     `json:"level"`
	TileSize    geom.Coord `json:"tile_size"`
	// Passes maps pass number -> class key -> completed result.
	Passes map[int]map[string]CheckpointEntry `json:"passes"`
}

// NewCheckpoint returns an empty checkpoint for the fingerprint.
func NewCheckpoint(fingerprint, level string, tile geom.Coord) *Checkpoint {
	return &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: fingerprint,
		Level:       level,
		TileSize:    tile,
		Passes:      map[int]map[string]CheckpointEntry{},
	}
}

// Entries returns the total completed class count across passes.
func (c *Checkpoint) Entries() int {
	n := 0
	for _, m := range c.Passes {
		n += len(m)
	}
	return n
}

// add records a completed class result.
func (c *Checkpoint) add(pass int, key string, e CheckpointEntry) {
	m := c.Passes[pass]
	if m == nil {
		m = map[string]CheckpointEntry{}
		c.Passes[pass] = m
	}
	m[key] = e
}

// WriteFile atomically serializes the checkpoint: write to a temp file
// in the same directory, fsync, rename. A crash mid-write leaves the
// previous artifact intact.
func (c *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("core: checkpoint encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("core: checkpoint write %s: %w", path, werr)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint artifact written by WriteFile.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s: version %d, want %d", path, c.Version, checkpointVersion)
	}
	if c.Passes == nil {
		c.Passes = map[int]map[string]CheckpointEntry{}
	}
	return &c, nil
}

// classKeyHash compresses a canonical class key (the exact geometry
// encoding) to a fixed-size hex digest for checkpoint storage.
func classKeyHash(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:16])
}

// runFingerprint hashes everything the tiled correction result depends
// on: the target geometry (canonical encoding) and every engine knob.
// Two runs with equal fingerprints produce bit-identical outputs, so a
// checkpoint from one may seed the other.
func (f *Flow) runFingerprint(target []geom.Polygon, level Level, tile geom.Coord, passes int) string {
	h := sha256.New()
	// dirty=0 is a constant: the hashed format predates the removal of
	// the dirty-tile tolerance, and keeping the token keeps every
	// checkpoint written since valid (TestFingerprintsPinned).
	fmt.Fprintf(h, "v%d|%s|tile=%d|passes=%d|halo=%d|iter=%d/%d|damp=%g|eps=%g|dirty=0|th=%.12g|dedup=%t|skip=%t|spec=%+v|mrc=%+v|",
		checkpointVersion, level, tile, passes, f.Ambit,
		f.ModelIter1, f.ModelIterFull, f.Damping, f.ConvergeEps,
		f.Threshold, f.DisableDedup, f.DisableDirtySkip, f.Spec, f.MRC)
	if f.Prior != nil {
		// A warmed run's tile results depend on the table contents, so a
		// checkpoint warmed by one table must never resume a run warmed
		// by another — or a cold run. Cold runs omit the token entirely,
		// keeping every pre-existing checkpoint valid.
		fmt.Fprintf(h, "prior=%s|", f.Prior.Fingerprint())
	}
	var buf []byte
	// Hash in bounded chunks so huge layers do not hold a second copy.
	for i := 0; i < len(target); i += 1024 {
		end := i + 1024
		if end > len(target) {
			end = len(target)
		}
		buf = geom.AppendCanonicalPolygons(buf[:0], target[i:end], geom.Pt(0, 0))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ckptWriter accumulates completed entries during a run and flushes
// them to disk periodically and at run end. Workers call add
// concurrently; writes happen under the lock but at most once per
// interval, so the scheduler never stalls on disk in the steady state.
type ckptWriter struct {
	mu    sync.Mutex
	ck    *Checkpoint
	path  string
	every time.Duration
	last  time.Time
	// tw records CheckpointWrite flight-recorder events (nil-safe;
	// flushes happen on whichever worker triggered them, but attributing
	// them to the coordinator ring keeps the timeline readable).
	tw *trace.Worker
}

func newCkptWriter(ck *Checkpoint, path string, every time.Duration, rec *trace.Recorder) *ckptWriter {
	if every <= 0 {
		every = 30 * time.Second
	}
	return &ckptWriter{ck: ck, path: path, every: every, last: time.Now(), tw: rec.Worker(0)}
}

// lookup consults the (resume-seeded) checkpoint for a finished class
// result. A nil writer (no checkpointing) and an empty key never hit.
func (w *ckptWriter) lookup(pass int, key string) (CheckpointEntry, bool) {
	if w == nil || key == "" {
		return CheckpointEntry{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.ck.Passes[pass][key]
	return e, ok
}

// add records one completed class and flushes if the interval elapsed.
func (w *ckptWriter) add(pass int, key string, e CheckpointEntry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ck.add(pass, key, e)
	if time.Since(w.last) < w.every {
		return nil
	}
	return w.writeLocked(pass)
}

// flush writes the current state unconditionally (run end, cancel).
func (w *ckptWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(0)
}

// writeLocked writes the checkpoint file, if the run has one; w.mu is
// held.
func (w *ckptWriter) writeLocked(pass int) error {
	if w.path == "" {
		return nil
	}
	w.last = time.Now()
	mCheckpointWrites.Inc()
	w.tw.Emit(trace.CheckpointWrite, pass, geom.Rect{}, w.ck.Entries(), 0, 0, w.path)
	return w.ck.WriteFile(w.path)
}
