package fft

import (
	"fmt"
	"runtime"
	"sync"

	"goopc/internal/par"
)

// Plan2D is a reusable 2-D transform plan for one grid geometry: the
// twiddle tables for both axes are resolved once, and the row and column
// passes fan out across up to Workers goroutines, as far as the
// process-wide compute budget (internal/par) grants them. Every
// transform produces bit-identical results at any worker count (each
// row/column is an independent transform), so a parallel plan can stand
// in for the serial Grid transforms anywhere. A Plan2D is safe for
// concurrent use.
type Plan2D struct {
	W, H int
	// Workers bounds the goroutine fan-out per pass; values <= 1 run the
	// pass inline.
	Workers    int
	fwdW, fwdH *twTables
	invW, invH *twTables
}

// NewPlan2D builds a plan for W x H grids with the default worker count
// (GOMAXPROCS).
func NewPlan2D(w, h int) (*Plan2D, error) {
	if !IsPow2(w) || !IsPow2(h) {
		return nil, fmt.Errorf("fft: plan %dx%d not power-of-two", w, h)
	}
	mPlansBuilt.Inc()
	return &Plan2D{
		W: w, H: h,
		Workers: runtime.GOMAXPROCS(0),
		fwdW:    tablesFor(w, false),
		fwdH:    tablesFor(h, false),
		invW:    tablesFor(w, true),
		invH:    tablesFor(h, true),
	}, nil
}

// Forward2DP computes the in-place 2-D DFT of g (rows then columns),
// parallel over rows/columns up to p.Workers.
func (p *Plan2D) Forward2DP(g *Grid) error { return p.apply(g, false, nil) }

// Inverse2DP computes the in-place 2-D inverse DFT of g with 1/(W*H)
// scaling, parallel over rows/columns up to p.Workers.
func (p *Plan2D) Inverse2DP(g *Grid) error { return p.apply(g, true, nil) }

// Forward2DPCols computes the forward DFT restricted to the listed
// output columns: the row pass runs in full, the column pass only on
// the listed columns. Listed columns match Forward2DP bit-for-bit;
// every other column is left in a partially transformed state and must
// not be read. Use when only a known frequency band is consumed.
func (p *Plan2D) Forward2DPCols(g *Grid, cols []int) error { return p.apply(g, false, cols) }

func (p *Plan2D) apply(g *Grid, invert bool, cols []int) error {
	if g.W != p.W || g.H != p.H {
		return fmt.Errorf("fft: plan %dx%d applied to grid %dx%d", p.W, p.H, g.W, g.H)
	}
	mTransforms.Inc()
	mKernelDispatch.Inc()
	w, h := p.W, p.H
	for _, x := range cols {
		if x < 0 || x >= w {
			return fmt.Errorf("fft: column %d outside plan width %d", x, w)
		}
	}
	twW, twH := p.fwdW, p.fwdH
	if invert {
		twW, twH = p.invW, p.invH
	}
	// Rows.
	parallelRange(h, p.Workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			transformT(g.Data[y*w:(y+1)*w], twW)
		}
	})
	// Columns, gathered into pooled scratch in blocks: four adjacent
	// complex128 columns share each 64-byte cache line, so walking the
	// grid once per 4-column block instead of once per column cuts the
	// strided gather/scatter traffic 4x. Each column is still an
	// independent contiguous transform.
	// The inverse's 1/N scaling is folded into each column transform's
	// final butterfly stage (transformTs): every output cell passes
	// through it exactly once (inverse passes always run the full
	// column set), and scaling inside the stage computes the same
	// expression the old per-element scatter multiply did, so the
	// scatter below is a plain store on both directions.
	cscale := 1.0
	if invert {
		cscale = 1 / float64(w*h)
	}
	colPass := func(x0, x1 int, pick []int) {
		buf := getScratch(colBlock * h)
		b0, b1 := buf[0*h:1*h], buf[1*h:2*h]
		b2, b3 := buf[2*h:3*h], buf[3*h:4*h]
		for i := x0; i < x1; i += colBlock {
			nb := x1 - i
			if nb > colBlock {
				nb = colBlock
			}
			if pick == nil && nb == colBlock {
				// Contiguous full block: the four columns are adjacent, so
				// gather and scatter move whole 4-wide row slices with no
				// index indirection.
				for y := 0; y < h; y++ {
					r4 := g.Data[y*w+i : y*w+i+4 : y*w+i+4]
					b0[y], b1[y], b2[y], b3[y] = r4[0], r4[1], r4[2], r4[3]
				}
				transformTs(b0, twH, cscale)
				transformTs(b1, twH, cscale)
				transformTs(b2, twH, cscale)
				transformTs(b3, twH, cscale)
				for y := 0; y < h; y++ {
					r4 := g.Data[y*w+i : y*w+i+4 : y*w+i+4]
					r4[0], r4[1], r4[2], r4[3] = b0[y], b1[y], b2[y], b3[y]
				}
				continue
			}
			var xs [colBlock]int
			for j := 0; j < nb; j++ {
				if pick != nil {
					xs[j] = pick[i+j]
				} else {
					xs[j] = i + j
				}
			}
			for y := 0; y < h; y++ {
				row := g.Data[y*w:]
				for j := 0; j < nb; j++ {
					buf[j*h+y] = row[xs[j]]
				}
			}
			for j := 0; j < nb; j++ {
				transformTs(buf[j*h:(j+1)*h], twH, cscale)
			}
			for y := 0; y < h; y++ {
				row := g.Data[y*w:]
				for j := 0; j < nb; j++ {
					row[xs[j]] = buf[j*h+y]
				}
			}
		}
		putScratch(buf)
	}
	if cols == nil {
		parallelRange(w, p.Workers, func(x0, x1 int) { colPass(x0, x1, nil) })
	} else {
		parallelRange(len(cols), p.Workers, func(i0, i1 int) { colPass(i0, i1, cols) })
	}
	return nil
}

// colBlock is how many adjacent columns a column pass moves together.
const colBlock = 4

// Sink selects what InverseBand stores for each cell v of its result.
type Sink uint8

// InverseBand sinks.
const (
	// SinkReal stores real(v): the inverse of a Hermitian spectrum.
	SinkReal Sink = iota
	// SinkNorm stores |v|^2, the intensity of a coherent field.
	SinkNorm
	// SinkAddNorm adds |v|^2 to what dst already holds.
	SinkAddNorm
)

// InverseBand computes the inverse 2-D DFT (1/(W*H) scaling) of a
// spectrum that is zero outside the listed grid rows, and hands every
// cell of the W x H result to the sink instead of storing the complex
// field: dst[y*W+x] receives real(v), |v|^2 or += |v|^2.
//
// band holds just the listed rows, packed and with their columns in
// butterfly order: spectrum cell (x, rows[i]) sits at
// band.Data[i*W+BitReverse(x, W)], so band.W == W and band.H ==
// len(rows). A caller scattering a sparse spectrum places it there for
// free, and the row transforms skip their permutation pass. band is
// consumed as scratch.
//
// The row pass transforms the packed rows where they lie; the column
// pass gathers, per block of four columns, only the listed rows into
// zeroed column scratch (again straight into butterfly order),
// transforms, and sinks — the W x H complex grid is never written or
// read. Each 1-D transform runs the butterflies Inverse2DP would run on
// the zero-padded grid over the same values, so the sunk values are
// bit-identical to applying the sink to its output, at any worker
// count. Band-limited spectra occupy a fraction of the rows, which
// makes this the cheap way to image them. The grid must be at least one
// column block (four columns) wide.
func (p *Plan2D) InverseBand(dst []float64, band *Grid, rows []int, sink Sink) error {
	w, h := p.W, p.H
	if w < colBlock {
		return fmt.Errorf("fft: band inverse needs at least %d columns, plan is %dx%d", colBlock, w, h)
	}
	if band.W != w || band.H != len(rows) || len(dst) != w*h {
		return fmt.Errorf("fft: plan %dx%d applied to band %dx%d (%d rows) and %d output cells",
			w, h, band.W, band.H, len(rows), len(dst))
	}
	rev := make([]int, len(rows))
	for i, y := range rows {
		if y < 0 || y >= h {
			return fmt.Errorf("fft: row %d outside plan height %d", y, h)
		}
		rev[i] = BitReverse(y, h)
	}
	mTransforms.Inc()
	mKernelDispatch.Inc()
	parallelRange(len(rows), p.Workers, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			butterflies(band.Data[i*w:(i+1)*w], p.invW, 1)
		}
	})
	cscale := 1 / float64(w*h)
	parallelRange(w/colBlock, p.Workers, func(blk0, blk1 int) {
		buf := getScratch(colBlock * h)
		defer putScratch(buf)
		b0, b1 := buf[0*h:1*h], buf[1*h:2*h]
		b2, b3 := buf[2*h:3*h], buf[3*h:4*h]
		for x0 := blk0 * colBlock; x0 < blk1*colBlock; x0 += colBlock {
			clear(buf)
			for i, y := range rev {
				r4 := band.Data[i*w+x0 : i*w+x0+4 : i*w+x0+4]
				b0[y], b1[y], b2[y], b3[y] = r4[0], r4[1], r4[2], r4[3]
			}
			butterflies(b0, p.invH, cscale)
			butterflies(b1, p.invH, cscale)
			butterflies(b2, p.invH, cscale)
			butterflies(b3, p.invH, cscale)
			switch sink {
			case SinkReal:
				for y := 0; y < h; y++ {
					d := dst[y*w+x0 : y*w+x0+4 : y*w+x0+4]
					d[0], d[1], d[2], d[3] = real(b0[y]), real(b1[y]), real(b2[y]), real(b3[y])
				}
			case SinkNorm:
				for y := 0; y < h; y++ {
					d := dst[y*w+x0 : y*w+x0+4 : y*w+x0+4]
					d[0], d[1], d[2], d[3] = norm(b0[y]), norm(b1[y]), norm(b2[y]), norm(b3[y])
				}
			case SinkAddNorm:
				for y := 0; y < h; y++ {
					d := dst[y*w+x0 : y*w+x0+4 : y*w+x0+4]
					d[0] += norm(b0[y])
					d[1] += norm(b1[y])
					d[2] += norm(b2[y])
					d[3] += norm(b3[y])
				}
			}
		}
	})
	return nil
}

// norm is |v|^2.
func norm(v complex128) float64 {
	re, im := real(v), imag(v)
	return re*re + im*im
}

// parallelRange splits [0, n) into contiguous chunks, one for the
// caller and one per extra goroutine the compute budget grants, up to
// workers chunks in all. With one worker, a tiny n, or the budget
// spent it runs inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	extra := par.Acquire(min(workers, n) - 1)
	if extra == 0 {
		fn(0, n)
		return
	}
	chunk := (n + extra) / (extra + 1)
	par.Run(extra, (n+chunk-1)/chunk, func(_, c int) {
		fn(c*chunk, min((c+1)*chunk, n))
	})
}

// scratchPools hands out per-length complex scratch vectors (the column
// buffers of the 2-D passes).
var scratchPools sync.Map // int -> *sync.Pool

func getScratch(n int) []complex128 {
	p, ok := scratchPools.Load(n)
	if !ok {
		p, _ = scratchPools.LoadOrStore(n, &sync.Pool{New: func() any {
			return make([]complex128, n)
		}})
	}
	return p.(*sync.Pool).Get().([]complex128)
}

func putScratch(v []complex128) {
	if p, ok := scratchPools.Load(len(v)); ok {
		p.(*sync.Pool).Put(v) //nolint:staticcheck // slice header boxing is fine here
	}
}

// gridPools recycles Grid storage per geometry so hot simulation loops
// stop allocating multi-megabyte fields on every call.
var gridPools sync.Map // [2]int -> *sync.Pool

// GetGrid returns a zeroed W x H grid from the pool.
func GetGrid(w, h int) *Grid {
	g := GetGridRaw(w, h)
	clear(g.Data)
	return g
}

// GetGridRaw is GetGrid without the clear: the grid holds whatever its
// last user left. For callers that assign every cell before reading.
func GetGridRaw(w, h int) *Grid {
	key := [2]int{w, h}
	mGridGets.Inc()
	p, ok := gridPools.Load(key)
	if !ok {
		p, _ = gridPools.LoadOrStore(key, &sync.Pool{New: func() any {
			mGridAllocs.Inc()
			return NewGrid(w, h)
		}})
	}
	return p.(*sync.Pool).Get().(*Grid)
}

// PutGrid returns a grid obtained from GetGrid to its pool. The caller
// must not retain g.Data afterwards.
func PutGrid(g *Grid) {
	if g == nil {
		return
	}
	if p, ok := gridPools.Load([2]int{g.W, g.H}); ok {
		p.(*sync.Pool).Put(g)
	}
}
