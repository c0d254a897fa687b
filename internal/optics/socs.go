// Sum-of-Coherent-Systems (SOCS) imaging: the production fast path.
//
// The Abbe loop computes I = sum_s w_s |IFFT(S * P_s)|^2 with one
// full-frame inverse FFT per sampled source point. The same image is
// exactly
//
//	I(x) = sum_{f1,f2} S(f1) S*(f2) T(f1,f2) e^{2 pi i (f1-f2) x}
//
// where T(f1,f2) = sum_s w_s P_s(f1) P_s*(f2) is the transmission
// cross-coefficient. Writing A[s][f] = sqrt(w_s) P_s(f), T has rank at
// most S (the source-point count), and its nonzero eigenpairs are
// recovered exactly from the tiny S x S source-Gram matrix G = A A^H:
// if G u = eig u then the TCC kernel is c(f) = sum_s A[s][f] conj(u[s])
// (already scaled by sqrt(eig)), and
//
//	I(x) = sum_k |IFFT(S * c_k)|^2.
//
// Kernels are truncated once their eigenvalue mass reaches the SOCSMass
// target; truncation error is bounded by the discarded mass. For a
// discrete source the tail decays slowly (the kernels must reproduce
// the sampled sum exactly), so the big win is not the kernel count but
// the evaluation grid: every field is band-limited to (1+sigma)NA/L,
// which the simulation frame oversamples by an order of magnitude. Each
// kernel IFFT therefore runs on a small coarse grid spanning the same
// physical extent (exact band-limited sampling, zero aliasing), the
// intensity - band-limited to twice the field band - is accumulated
// there, and one zero-padded Fourier interpolation lifts it to the fine
// frame. The result matches the full-frame evaluation to rounding
// error while doing a fraction of the butterflies. Kernel sets depend
// only on frame geometry and defocus, so they are built once per
// (frame, defocus) under a sync.Once and reused across every mask, OPC
// iteration, and dose point.
package optics

import (
	"context"
	"math"
	"math/cmplx"
	"sync"

	"goopc/internal/fft"
	"goopc/internal/geom"
	"goopc/internal/par"
)

// defaultSOCSMass is the retained TCC-trace fraction when
// Settings.SOCSMass is zero.
const defaultSOCSMass = 0.995

// kernelKey identifies one cached kernel set: the frequency grid
// (frame geometry) plus the defocus that shapes the pupil phase.
type kernelKey struct {
	w, h      int
	pixelNM   float64
	defocusNM float64
}

// kernelEntry is a cache slot populated exactly once.
type kernelEntry struct {
	once sync.Once
	ks   *kernelSet
	err  error
}

// kernelSet is one SOCS decomposition: the in-band frequency bins, the
// per-kernel filter coefficients over them, and the coarse evaluation
// grid the kernels are imaged on.
type kernelSet struct {
	// idx holds the flattened fine-frame indices of the in-band bins;
	// bidx the same bins' positions in the packed band the kernel
	// inverse consumes (fft.Plan2D.InverseBand): row i of the band is
	// coarse-grid row coarseRows[i], columns are coarse columns in
	// butterfly order (identical frequencies: both grids span the same
	// physical extent).
	idx, bidx []int32
	// coef[k][j] is kernel k's filter at bin idx[j], scaled by
	// sqrt(eigenvalue) and the coarse-grid DFT normalization ratio so
	// intensities sum without extra weights.
	coef [][]complex128
	// eigs are all TCC eigenvalues, descending.
	eigs []float64
	// kept is the retained kernel count; mass the retained fraction of
	// trace (the total TCC energy).
	kept  int
	trace float64
	mass  float64
	// cw, ch is the coarse evaluation grid; equal to the frame when the
	// band does not permit reduction.
	cw, ch int
	// fineCols are the fine-frame columns holding in-band bins (pruned
	// forward transform); coarseRows the coarse rows holding them
	// (pruned kernel inverses); embedRows the fine rows that receive
	// the upsampled intensity spectrum (pruned interpolation inverse),
	// one per non-Nyquist coarse row in coarse order, and embedCols
	// where in such a packed row each non-Nyquist coarse column lands
	// (butterfly order again; -1 for the Nyquist column).
	fineCols, coarseRows, embedRows, embedCols []int
}

// kernels returns the cached kernel set for a frame/defocus, building
// it on first use.
func (sim *Simulator) kernels(frame Frame, defocusNM float64) (*kernelSet, error) {
	key := kernelKey{frame.W, frame.H, frame.PixelNM, defocusNM}
	e, ok := sim.kcache.Load(key)
	if !ok {
		var loaded bool
		e, loaded = sim.kcache.LoadOrStore(key, &kernelEntry{})
		if loaded {
			mKernelHits.Inc()
		} else {
			mKernelMisses.Inc()
		}
	} else {
		mKernelHits.Inc()
	}
	entry := e.(*kernelEntry)
	entry.once.Do(func() {
		entry.ks, entry.err = sim.buildKernels(frame, defocusNM)
	})
	return entry.ks, entry.err
}

// ResetKernelCache drops every cached kernel set (benchmark support).
// Dropped entries count as evictions on the obs registry; the
// goopc_kernel_cache_{hits,misses}_total series, the one count of cache
// traffic, stay monotone.
func (sim *Simulator) ResetKernelCache() {
	evicted := int64(0)
	sim.kcache.Range(func(k, _ any) bool {
		sim.kcache.Delete(k)
		evicted++
		return true
	})
	mKernelEvictions.Add(evicted)
}

// KernelInfo reports the retained kernel count and eigenvalue-mass
// fraction the SOCS engine would use for the given window and defocus.
func (sim *Simulator) KernelInfo(window geom.Rect, defocusNM float64) (kept int, mass float64, err error) {
	frame := FrameFor(window, sim.S.PixelNM, sim.S.GuardNM)
	ks, err := sim.kernels(frame, defocusNM)
	if err != nil {
		return 0, 0, err
	}
	return ks.kept, ks.mass, nil
}

// CoarseGrid reports the SOCS evaluation grid against the full frame
// for the given window, the source of the engine's butterfly savings.
func (sim *Simulator) CoarseGrid(window geom.Rect, defocusNM float64) (cw, ch, fw, fh int, err error) {
	frame := FrameFor(window, sim.S.PixelNM, sim.S.GuardNM)
	ks, err := sim.kernels(frame, defocusNM)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return ks.cw, ks.ch, frame.W, frame.H, nil
}

// wrapBin maps a fine-grid FFT bin index to the bin of the same signed
// frequency on an n-point axis sharing the physical extent.
func wrapBin(k, fineN, n int) int {
	if k > fineN/2 {
		k -= fineN
	}
	if k < 0 {
		k += n
	}
	return k
}

// coarseSize picks the smallest power-of-two axis that holds the
// intensity spectrum alias-free: field bins reach +-r, so intensity
// (the field autocorrelation) reaches +-2r and needs n/2 > 2r.
func coarseSize(r, fineN int) int {
	n := fft.NextPow2(4*r + 2)
	if n < 8 {
		n = 8
	}
	if n > fineN {
		n = fineN
	}
	return n
}

// buildKernels constructs the TCC over the frame's in-band frequency
// grid and eigendecomposes it through the source-Gram matrix.
func (sim *Simulator) buildKernels(frame Frame, defocusNM float64) (*kernelSet, error) {
	naOverLambda := sim.S.NA / sim.S.LambdaNM
	band := (1 + sim.S.SigmaOuter) * naOverLambda
	band2 := band * band
	cutoff2 := naOverLambda * naOverLambda
	lambda := sim.S.LambdaNM

	fxs := make([]float64, frame.W)
	for k := range fxs {
		fxs[k] = freqAt(k, frame.W, frame.PixelNM)
	}
	fys := make([]float64, frame.H)
	for k := range fys {
		fys[k] = freqAt(k, frame.H, frame.PixelNM)
	}

	// In-band bins: every frequency any shifted pupil can pass. rx, ry
	// track the largest signed bin index per axis (the band radius).
	var idx []int32
	var binFx, binFy []float64
	rx, ry := 0, 0
	for ky := 0; ky < frame.H; ky++ {
		fy2 := fys[ky] * fys[ky]
		if fy2 > band2 {
			continue
		}
		for kx := 0; kx < frame.W; kx++ {
			if fxs[kx]*fxs[kx]+fy2 <= band2 {
				idx = append(idx, int32(ky*frame.W+kx))
				binFx = append(binFx, fxs[kx])
				binFy = append(binFy, fys[ky])
				if s := signedBin(kx, frame.W); s > rx || -s > rx {
					rx = absI(s)
				}
				if s := signedBin(ky, frame.H); s > ry || -s > ry {
					ry = absI(s)
				}
			}
		}
	}
	m := len(idx)
	ns := len(sim.src)

	// Coarse evaluation grid over the same extent, and the bin/row
	// bookkeeping for the pruned transforms.
	cw := coarseSize(rx, frame.W)
	ch := coarseSize(ry, frame.H)
	fineColSet := make(map[int]bool)
	coarseRowSet := make(map[int]bool)
	for _, fi := range idx {
		fineColSet[int(fi)%frame.W] = true
		coarseRowSet[wrapBin(int(fi)/frame.W, frame.H, ch)] = true
	}
	fineCols := sortedKeys(fineColSet)
	coarseRows := sortedKeys(coarseRowSet)
	bandRow := make(map[int]int, len(coarseRows))
	for i, cky := range coarseRows {
		bandRow[cky] = i
	}
	bidx := make([]int32, m)
	for j, fi := range idx {
		ckx := wrapBin(int(fi)%frame.W, frame.W, cw)
		cky := wrapBin(int(fi)/frame.W, frame.H, ch)
		bidx[j] = int32(bandRow[cky]*cw + fft.BitReverse(ckx, cw))
	}
	var embedRows []int
	for ky := 0; ky < ch; ky++ {
		if ky == ch/2 {
			continue
		}
		embedRows = append(embedRows, wrapBin(ky, ch, frame.H))
	}
	embedCols := make([]int, cw)
	for kx := range embedCols {
		embedCols[kx] = fft.BitReverse(wrapBin(kx, cw, frame.W), frame.W)
	}
	embedCols[cw/2] = -1

	// A[s][j] = sqrt(w_s) * P(f_j + shift_s), the defocused pupil seen
	// from source point s.
	a := make([][]complex128, ns)
	for si, sp := range sim.src {
		row := make([]complex128, m)
		sx := sp.SX * naOverLambda
		sy := sp.SY * naOverLambda
		sw := complex(math.Sqrt(sp.Weight), 0)
		for j := 0; j < m; j++ {
			fx := binFx[j] + sx
			fy := binFy[j] + sy
			f2 := fx*fx + fy*fy
			if f2 > cutoff2 {
				continue
			}
			p := sw
			if defocusNM != 0 {
				lf2 := lambda * lambda * f2
				phase := 2 * math.Pi / lambda * defocusNM * (math.Sqrt(1-lf2) - 1)
				p = sw * cmplx.Exp(complex(0, phase))
			}
			row[j] = p
		}
		a[si] = row
	}

	// Source-Gram matrix G = A A^H (Hermitian PSD, ns x ns).
	g := make([][]complex128, ns)
	for s := range g {
		g[s] = make([]complex128, ns)
	}
	for s := 0; s < ns; s++ {
		as := a[s]
		for t := s; t < ns; t++ {
			at := a[t]
			var sum complex128
			for j := range as {
				v := at[j]
				sum += as[j] * complex(real(v), -imag(v))
			}
			g[s][t] = sum
			g[t][s] = complex(real(sum), -imag(sum))
		}
	}

	eigs, vecs := jacobiHermitian(g)
	trace := 0.0
	for _, e := range eigs {
		if e > 0 {
			trace += e
		}
	}
	massTarget := sim.S.SOCSMass
	if massTarget == 0 {
		massTarget = defaultSOCSMass
	}
	maxK := sim.S.SOCSMaxKernels
	if maxK <= 0 || maxK > ns {
		maxK = ns
	}
	kept := 0
	acc := 0.0
	for kept < maxK {
		e := eigs[kept]
		if e <= 1e-12*trace {
			break
		}
		acc += e
		kept++
		if trace > 0 && acc >= massTarget*trace {
			break
		}
	}
	if kept == 0 {
		kept = 1
		acc = eigs[0]
	}

	// Kernel filters c_k(f) = sum_s A[s][f] conj(u_k[s]), folded with
	// the coarse-grid normalization: the coarse inverse divides by
	// cw*ch where the frame convention divides by W*H.
	norm := complex(float64(cw*ch)/float64(frame.W*frame.H), 0)
	coef := make([][]complex128, kept)
	for k := 0; k < kept; k++ {
		u := vecs[k]
		ck := make([]complex128, m)
		for s := 0; s < ns; s++ {
			us := complex(real(u[s]), -imag(u[s]))
			if us == 0 {
				continue
			}
			as := a[s]
			for j, av := range as {
				if av != 0 {
					ck[j] += av * us
				}
			}
		}
		for j := range ck {
			ck[j] *= norm
		}
		coef[k] = ck
	}
	mass := 1.0
	if trace > 0 {
		mass = acc / trace
	}
	mKernelBuilds.Inc()
	mKernelsKept.Observe(float64(kept))
	return &kernelSet{
		idx: idx, bidx: bidx, coef: coef, eigs: eigs,
		kept: kept, trace: trace, mass: mass,
		cw: cw, ch: ch,
		fineCols: fineCols, coarseRows: coarseRows, embedRows: embedRows, embedCols: embedCols,
	}, nil
}

func signedBin(k, n int) int {
	if k > n/2 {
		return k - n
	}
	return k
}

func absI(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// socsIntensity images the spectrum through the cached kernel set: one
// fused band-pruned inverse per retained kernel (fft.InverseBand: the
// filtered in-band bins are packed, transformed, and their squared
// magnitude lands straight in the coarse intensity — no coarse field
// grid exists), then a single Fourier interpolation of the accumulated
// intensity up to the frame. A parallel simulator fans the kernels out
// over whatever the compute budget grants: with none — an outer level
// holds the cores — the kernels accumulate in place one after the
// other; otherwise each lands in its own buffer and the buffers merge
// in kernel order, which is the same sum bit for bit.
func (sim *Simulator) socsIntensity(ctx context.Context, spectrum *fft.Grid, frame Frame, ks *kernelSet) ([]float64, error) {
	cplan, err := sim.plan(ks.cw, ks.ch)
	if err != nil {
		return nil, err
	}
	extra := 0
	if sim.S.Parallel {
		extra = par.Acquire(ks.kept - 1)
	}
	bands := make([]*fft.Grid, extra+1)
	image := func(worker, k int, dst []float64, sink fft.Sink) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if bands[worker] == nil {
			bands[worker] = fft.GetGridRaw(ks.cw, len(ks.coarseRows))
		}
		band := bands[worker].Data
		clear(band)
		ck := ks.coef[k]
		for j, bi := range ks.idx {
			band[ks.bidx[j]] = spectrum.Data[bi] * ck[j]
		}
		return cplan.InverseBand(dst, bands[worker], ks.coarseRows, sink)
	}
	// Every cell of an intensity buffer is assigned (the first kernel
	// stores, the rest add or are merged), so they come un-zeroed.
	cn := ks.cw * ks.ch
	coarse := getFloatsRaw(cn)
	if extra == 0 {
		for k := 0; k < ks.kept && err == nil; k++ {
			sink := fft.SinkAddNorm
			if k == 0 {
				sink = fft.SinkNorm
			}
			err = image(0, k, coarse, sink)
		}
	} else {
		parts := make([][]float64, ks.kept)
		errs := make([]error, ks.kept)
		parts[0] = coarse
		par.Run(extra, ks.kept, func(worker, k int) {
			if k > 0 {
				parts[k] = getFloatsRaw(cn)
			}
			errs[k] = image(worker, k, parts[k], fft.SinkNorm)
		})
		for k := 1; k < ks.kept; k++ {
			for i, v := range parts[k] {
				coarse[i] += v
			}
			putFloats(parts[k])
		}
		for _, kerr := range errs {
			if kerr != nil {
				err = kerr
				break
			}
		}
	}
	for _, b := range bands {
		fft.PutGrid(b)
	}
	if err != nil {
		putFloats(coarse)
		return nil, err
	}
	return sim.upsample(coarse, frame, ks)
}

// upsample lifts the coarse intensity to the frame grid by zero-padded
// Fourier interpolation. The intensity spectrum fits strictly inside
// the coarse Nyquist square by construction (coarseSize), so the
// interpolation is exact for the band-limited intensity: the fine
// samples match a full-frame evaluation to rounding error. The coarse
// buffer is consumed; the result is a pooled buffer (see Image.Release).
func (sim *Simulator) upsample(coarse []float64, frame Frame, ks *kernelSet) ([]float64, error) {
	if ks.cw == frame.W && ks.ch == frame.H {
		return coarse, nil
	}
	cplan, err := sim.plan(ks.cw, ks.ch)
	if err != nil {
		putFloats(coarse)
		return nil, err
	}
	fplan, err := sim.plan(frame.W, frame.H)
	if err != nil {
		putFloats(coarse)
		return nil, err
	}
	cg := fft.GetGridRaw(ks.cw, ks.ch)
	defer fft.PutGrid(cg)
	for i, v := range coarse {
		cg.Data[i] = complex(v, 0)
	}
	putFloats(coarse)
	if err := cplan.Forward2DP(cg); err != nil {
		return nil, err
	}
	// Embed every non-Nyquist coarse bin at its signed frequency, into
	// the packed rows of the fine spectrum that receive any (embedRows).
	// The Nyquist row/column carry only rounding noise (the spectrum
	// support ends below them) and have no unambiguous image on the
	// fine grid.
	band := fft.GetGrid(frame.W, len(ks.embedRows))
	defer fft.PutGrid(band)
	n := frame.W * frame.H
	ratio := complex(float64(n)/float64(ks.cw*ks.ch), 0)
	row := 0
	for cky := 0; cky < ks.ch; cky++ {
		if cky == ks.ch/2 {
			continue
		}
		src := cg.Data[cky*ks.cw:]
		dst := band.Data[row*frame.W:]
		row++
		for ckx, x := range ks.embedCols {
			if x >= 0 {
				dst[x] = src[ckx] * ratio
			}
		}
	}
	// The interpolated intensity is the real part of the inverse; every
	// cell is stored, so the output buffer comes un-zeroed.
	out := getFloatsRaw(n)
	if err := fplan.InverseBand(out, band, ks.embedRows, fft.SinkReal); err != nil {
		putFloats(out)
		return nil, err
	}
	return out, nil
}
