package optics

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"goopc/internal/geom"
)

// parityMask is a mask with 1-D and 2-D structure: a line grating plus a
// square, so both axes and corners exercise the kernels.
func parityMask() []geom.Polygon {
	var mask []geom.Polygon
	for i := -3; i <= 3; i++ {
		x := geom.Coord(i) * 430
		mask = append(mask, geom.R(x-90, -2000, x+90, 2000).Polygon())
	}
	mask = append(mask, geom.R(-600, 2300, -100, 2800).Polygon())
	return mask
}

// TestSOCSMatchesAbbe is the golden parity matrix: every mask tone,
// conventional and annular sources, zero and nonzero defocus. The SOCS
// image must track the Abbe reference to < 1e-3 in clear-field units.
func TestSOCSMatchesAbbe(t *testing.T) {
	tones := []Tone{BrightField, DarkField, AttPSMBrightField, AttPSMDarkField}
	shapes := []struct {
		name string
		set  func() Settings
	}{
		{"conventional", fastSettings},
		{"annular", func() Settings {
			s := fastSettings()
			s.Shape = Annular
			s.SigmaOuter = 0.75
			s.SigmaInner = 0.45
			return s
		}},
	}
	mask := parityMask()
	window := geom.R(-700, -400, 700, 400)
	for _, sh := range shapes {
		for _, tone := range tones {
			for _, defocus := range []float64{0, 400} {
				s := sh.set()
				s.MaskTone = tone
				s.Engine = EngineAbbe
				abbe, err := New(s)
				if err != nil {
					t.Fatal(err)
				}
				s.Engine = EngineSOCS
				socs, err := New(s)
				if err != nil {
					t.Fatal(err)
				}
				imA, err := abbe.AerialDefocus(mask, window, defocus)
				if err != nil {
					t.Fatal(err)
				}
				imS, err := socs.AerialDefocus(mask, window, defocus)
				if err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				for i := range imA.I {
					if d := math.Abs(imA.I[i] - imS.I[i]); d > worst {
						worst = d
					}
				}
				kept, mass, err := socs.KernelInfo(window, defocus)
				if err != nil {
					t.Fatal(err)
				}
				if worst >= 1e-3 {
					t.Errorf("%s/%s z=%.0f: max |dI| = %.2e (kernels=%d mass=%.5f), want < 1e-3",
						sh.name, tone, defocus, worst, kept, mass)
				}
				if kept >= abbe.SourcePoints() && defocus == 0 {
					t.Logf("%s/%s z=%.0f keeps all %d kernels; no compression", sh.name, tone, defocus, kept)
				}
			}
		}
	}
}

// TestKernelMassProperty: the retained eigenvalue mass must reach at
// least 99.5% of the TCC trace, eigenvalues must be sorted descending
// and essentially nonnegative.
func TestKernelMassProperty(t *testing.T) {
	for _, setup := range []func() Settings{fastSettings, func() Settings {
		s := fastSettings()
		s.Shape = Annular
		s.SigmaOuter = 0.75
		s.SigmaInner = 0.45
		return s
	}} {
		for _, defocus := range []float64{0, 400} {
			s := setup()
			sim, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			frame := FrameFor(geom.R(-400, -400, 400, 400), s.PixelNM, s.GuardNM)
			ks, err := sim.kernels(frame, defocus)
			if err != nil {
				t.Fatal(err)
			}
			if ks.trace <= 0 {
				t.Fatalf("TCC trace %v", ks.trace)
			}
			if ks.mass < 0.995 {
				t.Errorf("retained mass %.5f < 0.995 (kept %d of %d)", ks.mass, ks.kept, len(ks.eigs))
			}
			for i := 1; i < len(ks.eigs); i++ {
				if ks.eigs[i] > ks.eigs[i-1]+1e-9 {
					t.Fatalf("eigenvalues not sorted at %d: %v > %v", i, ks.eigs[i], ks.eigs[i-1])
				}
			}
			for i, e := range ks.eigs {
				if e < -1e-6*ks.trace {
					t.Errorf("negative eigenvalue %d: %v", i, e)
				}
			}
			if ks.kept < 1 || ks.kept > sim.SourcePoints() {
				t.Errorf("kept %d outside [1, %d]", ks.kept, sim.SourcePoints())
			}
		}
	}
}

// TestSOCSCompresses: the engine's work must shrink against the Abbe
// reference. The dominant saving is the coarse evaluation grid — the
// fields are band-limited far below the frame's Nyquist, so each
// kernel inverse runs on a grid whose area shrinks with the pixel
// oversampling (4x at the default 16nm pixel, 16x at 8nm). The
// kernel-truncation knob is the secondary axis: at a relaxed mass
// target the kernel count drops well below the source-point count.
func TestSOCSCompresses(t *testing.T) {
	s := Default() // SourceSteps 7, 16nm pixel
	sim, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	window := geom.R(-400, -400, 400, 400)
	cw, ch, fw, fh, err := sim.CoarseGrid(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cw*ch*4 > fw*fh {
		t.Errorf("coarse grid %dx%d vs frame %dx%d: expected >= 4x area reduction", cw, ch, fw, fh)
	}
	fine := s
	fine.PixelNM = 8
	fsim, err := New(fine)
	if err != nil {
		t.Fatal(err)
	}
	if cw, ch, fw, fh, err = fsim.CoarseGrid(window, 0); err != nil {
		t.Fatal(err)
	}
	if cw*ch*16 > fw*fh {
		t.Errorf("8nm pixel: coarse grid %dx%d vs frame %dx%d: expected >= 16x area reduction", cw, ch, fw, fh)
	}
	kept, mass, err := sim.KernelInfo(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("frame %dx%d -> coarse %dx%d; %d kernels (mass %.5f) for %d source points",
		fw, fh, cw, ch, kept, mass, sim.SourcePoints())

	// A discrete source's eigenvalue tail decays slowly, so the default
	// (parity-grade) mass keeps most kernels; a relaxed target must
	// compress the kernel count itself.
	relaxed := s
	relaxed.SOCSMass = 0.90
	rsim, err := New(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	rkept, rmass, err := rsim.KernelInfo(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rkept*2 >= rsim.SourcePoints() {
		t.Errorf("relaxed mass 0.90 kept %d of %d kernels (mass %.5f): truncation knob not compressing",
			rkept, rsim.SourcePoints(), rmass)
	}
}

func TestJacobiHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		// Random Hermitian H.
		h := make([][]complex128, n)
		orig := make([][]complex128, n)
		for i := range h {
			h[i] = make([]complex128, n)
			orig[i] = make([]complex128, n)
		}
		for i := 0; i < n; i++ {
			h[i][i] = complex(rng.NormFloat64(), 0)
			for j := i + 1; j < n; j++ {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				h[i][j] = v
				h[j][i] = cmplx.Conj(v)
			}
		}
		for i := range h {
			copy(orig[i], h[i])
		}
		eigs, vecs := jacobiHermitian(h)
		// Reconstruct: sum_k eig_k v_k v_k^H == orig.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var sum complex128
				for k := 0; k < n; k++ {
					sum += complex(eigs[k], 0) * vecs[k][i] * cmplx.Conj(vecs[k][j])
				}
				if cmplx.Abs(sum-orig[i][j]) > 1e-9 {
					t.Fatalf("trial %d: reconstruction (%d,%d) off by %g", trial, i, j, cmplx.Abs(sum-orig[i][j]))
				}
			}
		}
		// Orthonormality.
		for k := 0; k < n; k++ {
			for l := k; l < n; l++ {
				var dot complex128
				for i := 0; i < n; i++ {
					dot += vecs[k][i] * cmplx.Conj(vecs[l][i])
				}
				want := complex(0, 0)
				if k == l {
					want = 1
				}
				if cmplx.Abs(dot-want) > 1e-9 {
					t.Fatalf("trial %d: <v%d,v%d> = %v", trial, k, l, dot)
				}
			}
		}
	}
}

// TestKernelCacheReuse: an E-D style sweep must build kernels once per
// focus, never per dose or per repeated simulation.
func TestKernelCacheReuse(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	mask := []geom.Polygon{geom.R(-90, -1000, 90, 1000).Polygon()}
	window := geom.R(-300, -300, 300, 300)
	focuses := []float64{-300, 0, 300}
	// The registry series are process-wide: measure deltas.
	hits0, misses0 := mKernelHits.Value(), mKernelMisses.Value()
	stats := func() (hits, misses int64) {
		return mKernelHits.Value() - hits0, mKernelMisses.Value() - misses0
	}
	for pass := 0; pass < 4; pass++ { // doses are free: same images re-run
		for _, z := range focuses {
			if _, err := sim.AerialDefocus(mask, window, z); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := stats()
	if misses != int64(len(focuses)) {
		t.Errorf("misses = %d, want %d (one per focus)", misses, len(focuses))
	}
	if hits != int64(3*len(focuses)) {
		t.Errorf("hits = %d, want %d", hits, 3*len(focuses))
	}
	// A different window with the same frame geometry still hits.
	if _, err := sim.AerialDefocus(mask, geom.R(-280, -280, 280, 280), 0); err != nil {
		t.Fatal(err)
	}
	if _, misses2 := stats(); misses2 != misses {
		t.Errorf("same-geometry window caused a rebuild: misses %d -> %d", misses, misses2)
	}
	ev0 := mKernelEvictions.Value()
	sim.ResetKernelCache()
	if ev := mKernelEvictions.Value() - ev0; ev != int64(len(focuses)) {
		t.Errorf("reset evicted %d kernel sets, want %d", ev, len(focuses))
	}
	if _, err := sim.Aerial(mask, window); err != nil {
		t.Fatal(err)
	}
	if _, m := stats(); m != misses+1 {
		t.Errorf("post-reset misses = %d, want %d (one rebuild)", m, misses+1)
	}
}

// TestSOCSParallelMatchesSerial: kernel fan-out merges per-kernel
// buffers in kernel order, so parallel must be bit-compatible with
// serial.
func TestSOCSParallelMatchesSerial(t *testing.T) {
	s := fastSettings()
	s.Parallel = true
	simP, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = false
	simS, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	mask := parityMask()
	window := geom.R(-400, -300, 400, 300)
	imP, err := simP.AerialDefocus(mask, window, 250)
	if err != nil {
		t.Fatal(err)
	}
	imS, err := simS.AerialDefocus(mask, window, 250)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imP.I {
		if math.Abs(imP.I[i]-imS.I[i]) > 1e-12 {
			t.Fatalf("parallel/serial mismatch at %d: %g vs %g", i, imP.I[i], imS.I[i])
		}
	}
}

// TestAbbeEarlyAbort: a failing frame must stop the source loop at
// once instead of draining every remaining point.
func TestAbbeEarlyAbort(t *testing.T) {
	s := fastSettings()
	s.Engine = EngineAbbe
	s.Parallel = false
	sim, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if sim.SourcePoints() < 5 {
		t.Fatalf("want several source points, got %d", sim.SourcePoints())
	}
	// A non-power-of-two frame has no FFT plan.
	frame := Frame{W: 24, H: 24, PixelNM: s.PixelNM, OriginX: 0, OriginY: 0}
	spectrum := rasterize(nil, frame)
	if _, err := sim.abbeIntensity(context.Background(), spectrum, frame, 0); err == nil {
		t.Fatal("expected error from non-pow2 frame")
	}
	if n := sim.fieldEvals.Load(); n > 1 {
		t.Errorf("evaluated %d source fields after first failure, want at most 1", n)
	}
}

// TestEngineSettings covers validation and the tone-independence of the
// kernel cache key.
func TestEngineSettings(t *testing.T) {
	s := Default()
	if s.Engine != EngineSOCS {
		t.Errorf("default engine = %v, want socs", s.Engine)
	}
	if EngineSOCS.String() != "socs" || EngineAbbe.String() != "abbe" {
		t.Errorf("engine names: %q %q", EngineSOCS.String(), EngineAbbe.String())
	}
	bad := Default()
	bad.Engine = Engine(9)
	if err := bad.Validate(); err == nil {
		t.Error("bogus engine should fail validation")
	}
	bad = Default()
	bad.SOCSMass = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("SOCS mass >= 1 should fail validation")
	}
	bad = Default()
	bad.SOCSMaxKernels = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative kernel cap should fail validation")
	}
	// A kernel cap trades accuracy for speed but must stay functional.
	capped := fastSettings()
	capped.SOCSMaxKernels = 2
	sim, err := New(capped)
	if err != nil {
		t.Fatal(err)
	}
	kept, _, err := sim.KernelInfo(geom.R(-300, -300, 300, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Errorf("capped kernel count = %d, want 2", kept)
	}
}

// TestCoarseGridExact: the coarse-grid evaluation plus Fourier
// interpolation is exact for band-limited fields, not an approximation.
// At full kernel rank SOCS must reproduce the Abbe image to rounding
// error even though every kernel inverse ran on a 16x smaller grid.
func TestCoarseGridExact(t *testing.T) {
	s := fastSettings()
	s.SOCSMass = 0.999999 // unreachable short of full rank
	s.Engine = EngineAbbe
	abbe, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine = EngineSOCS
	socs, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	mask := parityMask()
	window := geom.R(-700, -400, 700, 400)
	for _, z := range []float64{0, 400} {
		imA, err := abbe.AerialDefocus(mask, window, z)
		if err != nil {
			t.Fatal(err)
		}
		imS, err := socs.AerialDefocus(mask, window, z)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range imA.I {
			if d := math.Abs(imA.I[i] - imS.I[i]); d > worst {
				worst = d
			}
		}
		cw, ch, fw, fh, err := socs.CoarseGrid(window, z)
		if err != nil {
			t.Fatal(err)
		}
		if cw >= fw || ch >= fh {
			t.Fatalf("coarse grid %dx%d did not shrink below frame %dx%d", cw, ch, fw, fh)
		}
		if worst > 1e-9 {
			t.Errorf("z=%.0f: full-rank coarse-grid image off by %.2e (coarse %dx%d, frame %dx%d)",
				z, worst, cw, ch, fw, fh)
		}
	}
}
