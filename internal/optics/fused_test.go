package optics

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"goopc/internal/fft"
	"goopc/internal/geom"
	"goopc/internal/par"
)

// kernelField is the unfused reference the production path replaced:
// the filtered in-band bins land on a full, zeroed coarse grid, which is
// inverse transformed whole. Test-only.
func kernelField(field, spectrum *fft.Grid, ks *kernelSet, k int, plan *fft.Plan2D) error {
	clear(field.Data)
	ck := ks.coef[k]
	for j, bi := range ks.idx {
		row, col := int(ks.bidx[j])/ks.cw, fft.BitReverse(int(ks.bidx[j])%ks.cw, ks.cw)
		field.Data[ks.coarseRows[row]*ks.cw+col] = spectrum.Data[bi] * ck[j]
	}
	return plan.Inverse2DP(field)
}

// referenceIntensity is socsIntensity as it was before the fused pass,
// on full grids throughout: per-kernel field grids squared and summed
// in kernel order, then the zero-padded interpolation through a full
// fine grid.
func referenceIntensity(t *testing.T, spectrum *fft.Grid, frame Frame, ks *kernelSet) []float64 {
	t.Helper()
	cplan, err := fft.NewPlan2D(ks.cw, ks.ch)
	if err != nil {
		t.Fatal(err)
	}
	cplan.Workers = 1
	coarse := make([]float64, ks.cw*ks.ch)
	field := fft.NewGrid(ks.cw, ks.ch)
	for k := 0; k < ks.kept; k++ {
		if err := kernelField(field, spectrum, ks, k, cplan); err != nil {
			t.Fatal(err)
		}
		for i, v := range field.Data {
			re, im := real(v), imag(v)
			coarse[i] += re*re + im*im
		}
	}
	if ks.cw == frame.W && ks.ch == frame.H {
		return coarse
	}
	cg := fft.NewGrid(ks.cw, ks.ch)
	for i, v := range coarse {
		cg.Data[i] = complex(v, 0)
	}
	if err := cplan.Forward2DP(cg); err != nil {
		t.Fatal(err)
	}
	fplan, err := fft.NewPlan2D(frame.W, frame.H)
	if err != nil {
		t.Fatal(err)
	}
	fplan.Workers = 1
	fg := fft.NewGrid(frame.W, frame.H)
	n := frame.W * frame.H
	ratio := complex(float64(n)/float64(ks.cw*ks.ch), 0)
	for cky := 0; cky < ks.ch; cky++ {
		if cky == ks.ch/2 {
			continue
		}
		fy := wrapBin(cky, ks.ch, frame.H)
		for ckx := 0; ckx < ks.cw; ckx++ {
			if ckx == ks.cw/2 {
				continue
			}
			fg.Data[fy*frame.W+wrapBin(ckx, ks.cw, frame.W)] = cg.Data[cky*ks.cw+ckx] * ratio
		}
	}
	if err := fplan.Inverse2DP(fg); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i, v := range fg.Data {
		out[i] = real(v)
	}
	return out
}

// TestFusedPassMatchesReference: the fused band-pruned kernel pass and
// interpolation must reproduce the unfused full-grid evaluation bit for
// bit — for mask spectra (Hermitian) and arbitrary ones, square and
// non-square frames, with and without a coarse-grid reduction, serial
// and parallel. `make test-purego` repeats it on the pure-Go kernels.
func TestFusedPassMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name    string
		pixel   float64
		window  geom.Rect
		defocus float64
	}{
		{"square", 16, geom.R(-700, -700, 700, 700), 0},
		{"wide", 16, geom.R(-1500, -300, 1500, 300), 250},
		{"tall", 16, geom.R(-200, -1400, 200, 1400), 0},
		{"no-reduction", 64, geom.R(-700, -400, 700, 400), 0},
	} {
		for _, parallel := range []bool{false, true} {
			s := fastSettings()
			s.PixelNM = tc.pixel
			s.Parallel = parallel
			sim, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			frame := FrameFor(tc.window, s.PixelNM, s.GuardNM)
			ks, err := sim.kernels(frame, tc.defocus)
			if err != nil {
				t.Fatal(err)
			}
			reduced := ks.cw < frame.W || ks.ch < frame.H
			if reduced == (tc.name == "no-reduction") {
				t.Fatalf("%s: coarse %dx%d on frame %dx%d", tc.name, ks.cw, ks.ch, frame.W, frame.H)
			}
			if tc.name == "wide" && frame.W == frame.H {
				t.Fatalf("wide frame came out square: %v", frame)
			}
			hermitian, err := sim.maskSpectrum(parityMask(), frame, nil)
			if err != nil {
				t.Fatal(err)
			}
			general := fft.NewGrid(frame.W, frame.H)
			for i := range general.Data {
				general.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for name, spectrum := range map[string]*fft.Grid{"hermitian": hermitian, "general": general} {
				want := referenceIntensity(t, spectrum, frame, ks)
				got, err := sim.socsIntensity(context.Background(), spectrum, frame, ks)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d cells, want %d", tc.name, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s parallel=%v: cell %d = %v, reference %v",
							tc.name, name, parallel, i, got[i], want[i])
					}
				}
				putFloats(got)
			}
		}
	}
}

// TestImageEqualAtEveryGrant: whatever share of the compute budget is
// left when an image is asked for — none, because an outer level holds
// every core, up to all of it — the image is the serial one bit for
// bit, on both engines.
func TestImageEqualAtEveryGrant(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	mask := parityMask()
	window := geom.R(-700, -400, 700, 400)
	for _, engine := range []Engine{EngineSOCS, EngineAbbe} {
		s := fastSettings()
		s.Engine = engine
		s.Parallel = false
		serial, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.AerialDefocus(mask, window, 300)
		if err != nil {
			t.Fatal(err)
		}
		s.Parallel = true
		parallel, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for grant := 0; grant < procs; grant++ {
			held := par.Acquire(procs - 1 - grant)
			if held != procs-1-grant {
				t.Fatalf("could not pin the budget at grant %d (got %d)", grant, held)
			}
			got, err := parallel.AerialDefocus(mask, window, 300)
			par.Release(held)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.I {
				if got.I[i] != want.I[i] {
					t.Fatalf("%s grant %d: pixel %d = %v, serial %v", engine, grant, i, got.I[i], want.I[i])
				}
			}
			got.Release()
		}
	}
}

// TestAbbeParallelEqualsSerial: the Abbe oracle sums its source points
// in order whatever the worker count, so a parallel simulator's image
// equals the serial one pixel for pixel, every time. (It used to merge
// per-worker partial sums in scheduling order and differed in the last
// bits on some runs.)
func TestAbbeParallelEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mask := parityMask()
	window := geom.R(-400, -300, 400, 300)
	s := fastSettings()
	s.Engine = EngineAbbe
	s.Parallel = false
	serial, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = true
	parallel, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Aerial(mask, window)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		got, err := parallel.Aerial(mask, window)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.I {
			if got.I[i] != want.I[i] {
				t.Fatalf("rep %d: pixel %d = %v, serial %v", rep, i, got.I[i], want.I[i])
			}
		}
		got.Release()
	}
}

// TestImageReleaseLifecycle: Release is optional, idempotent, survives
// a collection of the pool, never feeds the pool a buffer the simulator
// did not draw from it, and a recycled buffer never leaks one image
// into the next.
func TestImageReleaseLifecycle(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	mask := parityMask()
	window := geom.R(-700, -400, 700, 400)
	first, err := sim.Aerial(mask, window)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.I...)
	first.Release()
	if first.I != nil {
		t.Error("Release left I set")
	}
	first.Release() // idempotent
	runtime.GC()    // the pool may drop the buffer; nothing may dangle
	runtime.GC()
	first.Release()

	// A different image dirties the recycled buffer; the original mask
	// must still image identically into whatever buffer it gets.
	other, err := sim.Aerial(nil, window)
	if err != nil {
		t.Fatal(err)
	}
	other.Release()
	again, err := sim.Aerial(mask, window)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again.I[i] != want[i] {
			t.Fatalf("pixel %d = %v after buffer reuse, first image had %v", i, again.I[i], want[i])
		}
	}
	// Never released: plain garbage, nothing to assert beyond no panic.
	_, _ = sim.Aerial(mask, window)

	// A hand-built image owns its slice; Release must not pool it.
	mine := make([]float64, len(want))
	mine[0] = 42
	(&Image{Frame: again.Frame, Window: window, I: mine}).Release()
	for i := 0; i < 64; i++ {
		if b := getFloatsRaw(len(want)); &b[0] == &mine[0] {
			t.Fatal("a caller-owned buffer came out of the pool")
		}
	}
	again.Release()
}

// TestRawFloatsKeepZeroingContract: the raw getter may hand out stale
// values; the zeroing getter never does.
func TestRawFloatsKeepZeroingContract(t *testing.T) {
	const n = 1 << 10
	for i := 0; i < 8; i++ {
		v := getFloatsRaw(n)
		if len(v) != n {
			t.Fatalf("raw buffer has %d elements", len(v))
		}
		for j := range v {
			v[j] = 7
		}
		putFloats(v)
		z := getFloats(n)
		for j, x := range z {
			if x != 0 {
				t.Fatalf("zeroing getter returned %v at %d", x, j)
			}
		}
		putFloats(z)
	}
}
