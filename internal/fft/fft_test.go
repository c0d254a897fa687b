package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardKnownDC(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v", x[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Errorf("bin %d = %v", i, x[i])
		}
	}
}

func TestForwardKnownImpulse(t *testing.T) {
	// An impulse transforms to an all-ones spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v", i, v)
		}
	}
}

func TestForwardSingleTone(t *testing.T) {
	n := 16
	k := 3
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k*i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := complex(0, 0)
		if i == k {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Errorf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Error("length 3 should be rejected")
	}
	g := &Grid{W: 3, H: 4, Data: make([]complex128, 12)}
	if err := g.Forward2D(); err == nil {
		t.Error("3x4 grid should be rejected")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(7)) // 4..512
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if Forward(x) != nil || Inverse(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if Forward(x) != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-7*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + 2*b[i]
		}
		_ = Forward(a)
		_ = Forward(b)
		_ = Forward(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+2*b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGrid(16, 8)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = g.Data[i]
	}
	if err := g.Forward2D(); err != nil {
		t.Fatal(err)
	}
	if err := g.Inverse2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip diverged at %d", i)
		}
	}
}

func TestGrid2DSeparableTone(t *testing.T) {
	// A 2-D plane wave lands in exactly one bin.
	w, h := 16, 16
	kx, ky := 2, 5
	g := NewGrid(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ang := 2 * math.Pi * (float64(kx*x)/float64(w) + float64(ky*y)/float64(h))
			g.Set(x, y, cmplx.Exp(complex(0, ang)))
		}
	}
	if err := g.Forward2D(); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := complex(0, 0)
			if x == kx && y == ky {
				want = complex(float64(w*h), 0)
			}
			if cmplx.Abs(g.At(x, y)-want) > 1e-8 {
				t.Fatalf("bin (%d,%d) = %v, want %v", x, y, g.At(x, y), want)
			}
		}
	}
}

func TestLongTransformMatchesDirectDFT(t *testing.T) {
	// The scalar path reads precomputed twiddle tables instead of
	// accumulating w *= wStep across the butterfly, so even a long
	// transform must track a direct DFT to near machine precision.
	n := 4096
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j%n) / float64(n)
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		want[k] = sum
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k := range x {
		if d := cmplx.Abs(x[k] - want[k]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("size-%d transform deviates from direct DFT by %.3g, want < 1e-9", n, worst)
	}
}

func TestPlan2DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 4} {
		g := NewGrid(64, 32)
		for i := range g.Data {
			g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ref := g.Clone()
		plan, err := NewPlan2D(64, 32)
		if err != nil {
			t.Fatal(err)
		}
		plan.Workers = workers
		if err := plan.Forward2DP(g); err != nil {
			t.Fatal(err)
		}
		if err := ref.Forward2D(); err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if cmplx.Abs(g.Data[i]-ref.Data[i]) > 1e-12 {
				t.Fatalf("workers=%d: planned forward diverges at %d", workers, i)
			}
		}
		if err := plan.Inverse2DP(g); err != nil {
			t.Fatal(err)
		}
		if err := ref.Inverse2D(); err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if cmplx.Abs(g.Data[i]-ref.Data[i]) > 1e-12 {
				t.Fatalf("workers=%d: planned inverse diverges at %d", workers, i)
			}
		}
	}
}

func TestPlan2DDeterministicAcrossWorkers(t *testing.T) {
	// Parallel fan-out must not change a single bit: each row/column is
	// independent and the inverse scaling is one uniform pass.
	mk := func() *Grid {
		g := NewGrid(32, 64)
		for i := range g.Data {
			g.Data[i] = complex(float64(i%13)-6, float64(i%7)-3)
		}
		return g
	}
	a, b := mk(), mk()
	pa, _ := NewPlan2D(32, 64)
	pa.Workers = 1
	pb, _ := NewPlan2D(32, 64)
	pb.Workers = 8
	if err := pa.Inverse2DP(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Inverse2DP(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("worker count changed bits at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestPlan2DRejectsMismatch(t *testing.T) {
	if _, err := NewPlan2D(3, 4); err == nil {
		t.Error("non-pow2 plan should be rejected")
	}
	plan, err := NewPlan2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Forward2DP(NewGrid(16, 8)); err == nil {
		t.Error("mismatched grid should be rejected")
	}
}

func TestGridPoolReturnsZeroed(t *testing.T) {
	g := GetGrid(8, 8)
	for i := range g.Data {
		g.Data[i] = complex(1, 2)
	}
	PutGrid(g)
	h := GetGrid(8, 8)
	defer PutGrid(h)
	for i, v := range h.Data {
		if v != 0 {
			t.Fatalf("pooled grid not zeroed at %d: %v", i, v)
		}
	}
	if h.W != 8 || h.H != 8 {
		t.Fatalf("pooled grid geometry %dx%d", h.W, h.H)
	}
}

func TestGridAtSetClone(t *testing.T) {
	g := NewGrid(4, 4)
	g.Set(1, 2, 3+4i)
	if g.At(1, 2) != 3+4i {
		t.Error("At/Set mismatch")
	}
	c := g.Clone()
	c.Set(1, 2, 0)
	if g.At(1, 2) != 3+4i {
		t.Error("Clone must not share storage")
	}
}

// TestInverseBandMatchesFull: for spectra supported on a known row set,
// every sink of the fused band inverse must equal the sink applied to
// the full inverse of the zero-padded grid, bit for bit — on Hermitian
// and general spectra, square and non-square grids, packed rows in any
// order, and at any worker count.
func TestInverseBandMatchesFull(t *testing.T) {
	// Enough budget for the multi-worker cases to really fan out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		w, h int
		rows []int
	}{
		{64, 32, []int{0, 1, 2, 3, 29, 30, 31}},
		{32, 64, []int{63, 0, 5, 62}},
		{16, 16, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{4, 8, []int{1, 7}},
		{8, 4, nil},
	} {
		for _, hermitian := range []bool{false, true} {
			w, h := tc.w, tc.h
			full := NewGrid(w, h)
			for _, y := range tc.rows {
				for x := 0; x < w; x++ {
					full.Data[y*w+x] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			if hermitian {
				// Symmetrize: F(-k) = conj F(k); the listed row sets are
				// closed under negation where it matters, other rows
				// just lose their partner's contribution.
				for _, y := range tc.rows {
					for x := 0; x < w; x++ {
						my, mx := (h-y)%h, (w-x)%w
						v := full.Data[y*w+x]
						full.Data[my*w+mx] = complex(real(v), -imag(v))
					}
				}
			}
			want := full.Clone()
			p, err := NewPlan2D(w, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Inverse2DP(want); err != nil {
				t.Fatal(err)
			}
			rows := tc.rows
			if hermitian {
				rows = nil
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if full.Data[y*w+x] != 0 {
							rows = append(rows, y)
							break
						}
					}
				}
			}
			for _, workers := range []int{1, 3, 8} {
				p.Workers = workers
				for _, sink := range []Sink{SinkReal, SinkNorm, SinkAddNorm} {
					band := NewGrid(w, len(rows))
					for i, y := range rows {
						for x := 0; x < w; x++ {
							band.Data[i*w+BitReverse(x, w)] = full.Data[y*w+x]
						}
					}
					dst := make([]float64, w*h)
					for i := range dst {
						dst[i] = float64(i%5) + 0.25
					}
					if err := p.InverseBand(dst, band, rows, sink); err != nil {
						t.Fatal(err)
					}
					for i, v := range want.Data {
						re, im := real(v), imag(v)
						exp := re
						switch sink {
						case SinkNorm:
							exp = re*re + im*im
						case SinkAddNorm:
							exp = float64(i%5) + 0.25
							exp += re*re + im*im
						}
						if dst[i] != exp {
							t.Fatalf("%dx%d hermitian=%v workers=%d sink=%d: cell %d = %v, want %v",
								w, h, hermitian, workers, sink, i, dst[i], exp)
						}
					}
				}
			}
		}
	}
	p, _ := NewPlan2D(8, 8)
	dst := make([]float64, 64)
	if err := p.InverseBand(dst, NewGrid(8, 1), []int{8}, SinkReal); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := p.InverseBand(dst, NewGrid(8, 2), []int{0}, SinkReal); err == nil {
		t.Error("band/rows size mismatch accepted")
	}
	if err := p.InverseBand(dst[:60], NewGrid(8, 1), []int{0}, SinkReal); err == nil {
		t.Error("short output accepted")
	}
	narrow, _ := NewPlan2D(2, 8)
	if err := narrow.InverseBand(dst[:16], NewGrid(2, 1), []int{0}, SinkReal); err == nil {
		t.Error("grid narrower than a column block accepted")
	}
}

// TestGridPoolRawKeepsContract: the raw getter may hand out stale
// cells, the zeroing getter never does — even right after a raw user
// dirtied the pooled grid.
func TestGridPoolRawKeepsContract(t *testing.T) {
	g := GetGridRaw(8, 4)
	if g.W != 8 || g.H != 4 || len(g.Data) != 32 {
		t.Fatalf("raw grid geometry %dx%d len %d", g.W, g.H, len(g.Data))
	}
	for i := range g.Data {
		g.Data[i] = complex(3, 4)
	}
	PutGrid(g)
	z := GetGrid(8, 4)
	defer PutGrid(z)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("zeroing getter returned dirty cell %d: %v", i, v)
		}
	}
}

// TestForward2DPColsMatchesFull: listed output columns of the pruned
// forward transform must match the full transform bit-for-bit.
func TestForward2DPColsMatchesFull(t *testing.T) {
	const w, h = 32, 64
	rng := rand.New(rand.NewSource(12))
	full := NewGrid(w, h)
	for i := range full.Data {
		full.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	pruned := NewGrid(w, h)
	copy(pruned.Data, full.Data)
	p, err := NewPlan2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward2DP(full); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1, 5, 30, 31}
	if err := p.Forward2DPCols(pruned, cols); err != nil {
		t.Fatal(err)
	}
	for _, x := range cols {
		for y := 0; y < h; y++ {
			if full.Data[y*w+x] != pruned.Data[y*w+x] {
				t.Fatalf("bit mismatch at col %d row %d", x, y)
			}
		}
	}
	if err := p.Forward2DPCols(pruned, []int{-1}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}
