package optics

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"goopc/internal/fft"
	"goopc/internal/geom"
)

// Simulator computes aerial images for a fixed exposure setup. It is
// safe for concurrent use and must not be copied (it embeds caches).
type Simulator struct {
	S   Settings
	src []srcPoint

	// plans caches FFT plans per frame geometry.
	plans sync.Map // [2]int -> *fft.Plan2D
	// kcache caches SOCS kernel sets per (frame geometry, defocus) so
	// OPC iteration loops and E-D process-window sweeps rebuild nothing.
	kcache sync.Map // kernelKey -> *kernelEntry
	// fieldEvals counts Abbe source-field evaluations (observability for
	// the early-abort path and the benchmarks).
	fieldEvals atomic.Int64
}

// New validates the settings and prepares the source sampling.
func New(s Settings) (*Simulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{S: s, src: sampleSource(s)}, nil
}

// SourcePoints returns the number of sampled illumination points.
func (sim *Simulator) SourcePoints() int { return len(sim.src) }

// plan returns the cached FFT plan for a frame geometry. Serial
// simulators get single-worker plans so Parallel=false stays truly
// serial.
func (sim *Simulator) plan(w, h int) (*fft.Plan2D, error) {
	key := [2]int{w, h}
	if p, ok := sim.plans.Load(key); ok {
		mPlanReuse.Inc()
		return p.(*fft.Plan2D), nil
	}
	mPlanBuilds.Inc()
	p, err := fft.NewPlan2D(w, h)
	if err != nil {
		return nil, err
	}
	if !sim.S.Parallel {
		p.Workers = 1
	}
	actual, _ := sim.plans.LoadOrStore(key, p)
	return actual.(*fft.Plan2D), nil
}

// psmAmplitude returns the shifter field amplitude sqrt(T).
func (sim *Simulator) psmAmplitude() float64 {
	t := sim.S.PSMTransmission
	if t <= 0 {
		t = 0.06
	}
	return math.Sqrt(t)
}

// Aerial computes the aerial image of the mask polygons over the window
// at the settings' defocus.
func (sim *Simulator) Aerial(mask []geom.Polygon, window geom.Rect) (*Image, error) {
	return sim.AerialDefocus(mask, window, sim.S.DefocusNM)
}

// AerialDefocus computes the aerial image at an explicit defocus (nm),
// overriding the settings. Dose is applied downstream by scaling the
// resist threshold, so the image itself is dose-independent. The
// settings' Engine selects between the cached SOCS kernel path (default)
// and the Abbe source-point reference.
func (sim *Simulator) AerialDefocus(mask []geom.Polygon, window geom.Rect, defocusNM float64) (*Image, error) {
	return sim.AerialDefocusCtx(context.Background(), mask, window, defocusNM)
}

// AerialDefocusCtx is AerialDefocus bounded by a context: cancellation
// or deadline expiry aborts the integration between kernel (SOCS) or
// source-point (Abbe) evaluations and returns the context error. The
// per-check cost is one atomic load, so an un-cancelled context costs
// nothing measurable against an FFT.
func (sim *Simulator) AerialDefocusCtx(ctx context.Context, mask []geom.Polygon, window geom.Rect, defocusNM float64) (*Image, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if window.Empty() {
		return nil, fmt.Errorf("optics: empty simulation window")
	}
	frame := FrameFor(window, sim.S.PixelNM, sim.S.GuardNM)
	if frame.W*frame.H > 1<<22 {
		return nil, fmt.Errorf("optics: window %v needs %dx%d grid; enlarge pixel or shrink window",
			window, frame.W, frame.H)
	}
	mFramePixels.Observe(float64(frame.W * frame.H))
	var intensity []float64
	if sim.S.Engine == EngineAbbe {
		mImagesAbbe.Inc()
		spectrum, err := sim.maskSpectrum(mask, frame, nil)
		if err != nil {
			return nil, err
		}
		intensity, err = sim.abbeIntensity(ctx, spectrum, frame, defocusNM)
		fft.PutGrid(spectrum)
		if err != nil {
			return nil, err
		}
	} else {
		// Kernels first: the kernel set knows which spectrum columns are
		// in-band, so the forward transform can skip the rest.
		ks, err := sim.kernels(frame, defocusNM)
		if err != nil {
			return nil, err
		}
		spectrum, err := sim.maskSpectrum(mask, frame, ks.fineCols)
		if err != nil {
			return nil, err
		}
		mImagesSOCS.Inc()
		intensity, err = sim.socsIntensity(ctx, spectrum, frame, ks)
		fft.PutGrid(spectrum)
		if err != nil {
			return nil, err
		}
	}
	return &Image{Frame: frame, Window: window, I: intensity, pooled: true}, nil
}

// maskSpectrum rasterizes the mask into a pooled grid, applies the tone
// amplitude mapping, and transforms it to the frequency domain. A
// non-nil cols restricts the column pass to the listed spectrum
// columns; the rest of the grid is then garbage and must not be read.
// The caller returns the grid with fft.PutGrid.
func (sim *Simulator) maskSpectrum(mask []geom.Polygon, frame Frame, cols []int) (*fft.Grid, error) {
	spectrum := fft.GetGrid(frame.W, frame.H)
	rasterizeInto(spectrum, mask, frame)
	switch sim.S.MaskTone {
	case BrightField:
		// Drawn polygons are chrome: amplitude is the complement.
		for i, v := range spectrum.Data {
			spectrum.Data[i] = complex(1-real(v), 0)
		}
	case DarkField:
		// Drawn polygons are openings: amplitude is the coverage itself.
	case AttPSMBrightField:
		// Drawn polygons are pi-shifted attenuated shifter: amplitude
		// 1 on the background, -sqrt(T) under full coverage.
		t := sim.psmAmplitude()
		for i, v := range spectrum.Data {
			c := real(v)
			spectrum.Data[i] = complex(1-c*(1+t), 0)
		}
	case AttPSMDarkField:
		// Openings in shifter: background -sqrt(T), opening 1.
		t := sim.psmAmplitude()
		for i, v := range spectrum.Data {
			c := real(v)
			spectrum.Data[i] = complex(c*(1+t)-t, 0)
		}
	}
	plan, err := sim.plan(frame.W, frame.H)
	if err != nil {
		fft.PutGrid(spectrum)
		return nil, err
	}
	if cols != nil {
		err = plan.Forward2DPCols(spectrum, cols)
	} else {
		err = plan.Forward2DP(spectrum)
	}
	if err != nil {
		fft.PutGrid(spectrum)
		return nil, err
	}
	return spectrum, nil
}

// abbeIntensity runs the reference source-point integration: one
// pupil-filtered inverse FFT per sampled source point, weighted
// intensities summed in source order — so the image is the same bit
// for bit whether the simulator is parallel or not (a parallel one
// fans out inside each inverse, which is worker-count invariant). The
// loop stops at the first failed source point or once the context is
// cancelled.
func (sim *Simulator) abbeIntensity(ctx context.Context, spectrum *fft.Grid, frame Frame, defocusNM float64) ([]float64, error) {
	plan, err := sim.plan(frame.W, frame.H)
	if err != nil {
		return nil, err
	}
	naOverLambda := sim.S.NA / sim.S.LambdaNM

	// Precompute per-axis frequencies.
	fxs := make([]float64, frame.W)
	for k := range fxs {
		fxs[k] = freqAt(k, frame.W, frame.PixelNM)
	}
	fys := make([]float64, frame.H)
	for k := range fys {
		fys[k] = freqAt(k, frame.H, frame.PixelNM)
	}

	intensity := getFloats(frame.W * frame.H)
	field := fft.GetGridRaw(frame.W, frame.H) // sourceField clears it itself
	defer fft.PutGrid(field)
	for _, sp := range sim.src {
		if err = ctx.Err(); err == nil {
			err = sim.sourceField(spectrum, field, plan, frame, sp, defocusNM, naOverLambda, fxs, fys)
		}
		if err != nil {
			putFloats(intensity)
			return nil, err
		}
		for i, v := range field.Data {
			re, im := real(v), imag(v)
			intensity[i] += sp.Weight * (re*re + im*im)
		}
	}
	return intensity, nil
}

// sourceField fills field with the coherent image field for one source
// point: IFFT of the mask spectrum filtered by the shifted, defocused
// pupil. Out-of-band bins are zeroed.
func (sim *Simulator) sourceField(spectrum, field *fft.Grid, plan *fft.Plan2D, frame Frame, sp srcPoint,
	defocusNM, naOverLambda float64, fxs, fys []float64) error {
	sim.fieldEvals.Add(1)
	mFieldEvals.Inc()
	sx := sp.SX * naOverLambda
	sy := sp.SY * naOverLambda
	cutoff := naOverLambda
	cutoff2 := cutoff * cutoff
	lambda := sim.S.LambdaNM
	clear(field.Data)
	for ky := 0; ky < frame.H; ky++ {
		fy := fys[ky] + sy
		fy2 := fy * fy
		if fy2 > cutoff2 {
			continue
		}
		rowS := spectrum.Data[ky*frame.W:]
		rowF := field.Data[ky*frame.W:]
		for kx := 0; kx < frame.W; kx++ {
			fx := fxs[kx] + sx
			f2 := fx*fx + fy2
			if f2 > cutoff2 {
				continue
			}
			p := complex(1, 0)
			if defocusNM != 0 {
				// Defocus phase: 2*pi/lambda * z * (sqrt(1-(lambda f)^2) - 1).
				lf2 := lambda * lambda * f2
				phase := 2 * math.Pi / lambda * defocusNM * (math.Sqrt(1-lf2) - 1)
				p = cmplx.Exp(complex(0, phase))
			}
			rowF[kx] = rowS[kx] * p
		}
	}
	return plan.Inverse2DP(field)
}
