package optics

import (
	"math"

	"goopc/internal/geom"
)

// Image is a computed aerial image: intensity samples on the simulation
// frame, normalized so an unpatterned clear field is 1.0. Window is the
// region of interest the caller asked for; the frame extends beyond it
// by the guard band.
//
// The simulator draws I from a buffer pool. A caller that is done with
// an image may hand the buffer back with Release — the iteration loops
// that image thousands of masks do, and then allocate nothing per image
// — but never has to: an unreleased image is ordinary garbage.
type Image struct {
	Frame  Frame
	Window geom.Rect
	I      []float64
	// pooled marks I as drawn from the buffer pool (set by the
	// simulator only; an Image built by hand never feeds the pool).
	pooled bool
}

// Release returns the image's intensity buffer to the simulator's pool
// and sets I to nil; the image must not be sampled afterwards. It is
// optional and idempotent, but not safe to call concurrently with any
// other use of the image.
func (im *Image) Release() {
	if im.pooled && im.I != nil {
		putFloats(im.I)
	}
	im.I = nil
}

// At samples the intensity at nm coordinates by bilinear interpolation.
// Points outside the frame return 0.
func (im *Image) At(x, y float64) float64 {
	f := im.Frame
	gx := (x - f.OriginX) / f.PixelNM
	gy := (y - f.OriginY) / f.PixelNM
	ix := int(math.Floor(gx))
	iy := int(math.Floor(gy))
	if ix < 0 || iy < 0 || ix+1 >= f.W || iy+1 >= f.H {
		return 0
	}
	tx := gx - float64(ix)
	ty := gy - float64(iy)
	i00 := im.I[iy*f.W+ix]
	i10 := im.I[iy*f.W+ix+1]
	i01 := im.I[(iy+1)*f.W+ix]
	i11 := im.I[(iy+1)*f.W+ix+1]
	return i00*(1-tx)*(1-ty) + i10*tx*(1-ty) + i01*(1-tx)*ty + i11*tx*ty
}

// AtPoint samples at a DBU point.
func (im *Image) AtPoint(p geom.Point) float64 {
	return im.At(float64(p.X), float64(p.Y))
}

// Gradient returns the intensity gradient (per nm) at nm coordinates by
// central differences over one pixel.
func (im *Image) Gradient(x, y float64) (gx, gy float64) {
	d := im.Frame.PixelNM
	gx = (im.At(x+d, y) - im.At(x-d, y)) / (2 * d)
	gy = (im.At(x, y+d) - im.At(x, y-d)) / (2 * d)
	return
}

// MaxIn returns the maximum sampled intensity over the window.
func (im *Image) MaxIn(window geom.Rect) float64 {
	best := 0.0
	im.eachIn(window, func(v float64) {
		if v > best {
			best = v
		}
	})
	return best
}

// MinIn returns the minimum sampled intensity over the window.
func (im *Image) MinIn(window geom.Rect) float64 {
	best := math.Inf(1)
	im.eachIn(window, func(v float64) {
		if v < best {
			best = v
		}
	})
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

func (im *Image) eachIn(window geom.Rect, fn func(v float64)) {
	f := im.Frame
	ix0 := clampI(int((float64(window.X0)-f.OriginX)/f.PixelNM), 0, f.W-1)
	ix1 := clampI(int((float64(window.X1)-f.OriginX)/f.PixelNM+1), 0, f.W-1)
	iy0 := clampI(int((float64(window.Y0)-f.OriginY)/f.PixelNM), 0, f.H-1)
	iy1 := clampI(int((float64(window.Y1)-f.OriginY)/f.PixelNM+1), 0, f.H-1)
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			fn(im.I[iy*f.W+ix])
		}
	}
}

// CrossSection samples n+1 intensity values along the segment from
// (x0,y0) to (x1,y1) in nm coordinates.
func (im *Image) CrossSection(x0, y0, x1, y1 float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		out[i] = im.At(x0+(x1-x0)*t, y0+(y1-y0)*t)
	}
	return out
}

// FindCrossing scans along the ray from (x0,y0) in direction (dx,dy)
// (unit-normalized internally) up to maxDist nm for the first crossing
// of the threshold, and refines it by bisection to subStep precision.
// It returns the distance from the start and true when found. The
// crossing direction is detected from the starting side: starting above
// the threshold finds a falling crossing, and vice versa.
func (im *Image) FindCrossing(x0, y0, dx, dy, threshold, maxDist float64) (float64, bool) {
	norm := math.Hypot(dx, dy)
	if norm == 0 || maxDist <= 0 {
		return 0, false
	}
	dx, dy = dx/norm, dy/norm
	step := im.Frame.PixelNM / 2
	v0 := im.At(x0, y0)
	above := v0 >= threshold
	prev := 0.0
	for d := step; d <= maxDist; d += step {
		v := im.At(x0+dx*d, y0+dy*d)
		if (v >= threshold) != above {
			// Bisect between prev and d.
			lo, hi := prev, d
			for i := 0; i < 30; i++ {
				mid := (lo + hi) / 2
				vm := im.At(x0+dx*mid, y0+dy*mid)
				if (vm >= threshold) == above {
					lo = mid
				} else {
					hi = mid
				}
			}
			return (lo + hi) / 2, true
		}
		prev = d
	}
	return 0, false
}

// NILS returns the normalized image log slope |dI/dx| * CD / I at the
// given nm point along the given direction, the standard process-window
// quality metric.
func (im *Image) NILS(x, y, dx, dy float64, cdNM float64) float64 {
	gx, gy := im.Gradient(x, y)
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return 0
	}
	slope := math.Abs(gx*dx/norm + gy*dy/norm)
	v := im.At(x, y)
	if v <= 0 {
		return 0
	}
	return slope * cdNM / v
}
