//go:build arm64 && !purego

package fft

// NEON butterfly kernels. The assembly multiplies complexes with the
// dup/swap/negate-add sequence — separate FMUL products, a sign flip of
// the cross term's real lane (a-b == a+(-b) in IEEE-754), then FADD —
// never FMLA, whose fused rounding would diverge from the pure-Go
// reference. Every component is rounded exactly where the generic
// kernels round it, so outputs match value-for-value (only zero signs
// may differ, which compare equal). Wrappers guard the alignment
// invariants the assembly assumes and fall back to the generic kernels
// otherwise; with the tables the transforms build, the guards never
// fire.

//go:noescape
func stageNEON(x *complex128, n, size int, wt *complex128)

//go:noescape
func stageScaleNEON(x *complex128, n, size int, wt *complex128, scale float64)

//go:noescape
func stage24NEON(x *complex128, n int, w1r, w1i float64)

// installArchKernels swaps in the NEON kernels unconditionally: ASIMD
// is part of the arm64 baseline, so there is nothing to probe.
func installArchKernels() {
	kernelName = kernelNEON
	stage24 = stage24NAsm
	stage = stageNAsm
	stageScale = stageScaleNAsm
}

func stageNAsm(x []complex128, size int, wt []complex128) {
	half := size >> 1
	if half < 4 || half&3 != 0 || len(wt) != half || len(x) == 0 || len(x)&(size-1) != 0 {
		stageGeneric(x, size, wt)
		return
	}
	stageNEON(&x[0], len(x), size, &wt[0])
}

func stageScaleNAsm(x []complex128, size int, wt []complex128, scale float64) {
	half := size >> 1
	if half < 4 || half&3 != 0 || len(wt) != half || len(x) == 0 || len(x)&(size-1) != 0 {
		stageScaleGeneric(x, size, wt, scale)
		return
	}
	stageScaleNEON(&x[0], len(x), size, &wt[0], scale)
}

func stage24NAsm(x []complex128, w1 complex128) {
	if len(x) < 4 || len(x)&3 != 0 {
		stage24Generic(x, w1)
		return
	}
	stage24NEON(&x[0], len(x), real(w1), imag(w1))
}
