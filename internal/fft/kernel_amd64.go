//go:build amd64 && !purego

package fft

// AVX2 butterfly kernels. The assembly multiplies complexes with the
// classic dup/swap/addsub sequence — separate VMULPD products combined
// by VADDSUBPD, never FMA — so every component is rounded exactly where
// the pure-Go reference rounds it and the outputs match the generic
// kernels value-for-value. Wrappers guard the alignment invariants the
// assembly assumes (half a multiple of 4, grid length a multiple of the
// stage size) and fall back to the generic kernels otherwise; with the
// tables the transforms build, the guards never fire.

// cpuSupportsAVX2 probes CPUID for AVX2 plus OS-enabled AVX state
// (OSXSAVE, XCR0 XMM|YMM).
func cpuSupportsAVX2() bool

//go:noescape
func stageAVX2(x *complex128, n, size int, wt *complex128)

//go:noescape
func stageScaleAVX2(x *complex128, n, size int, wt *complex128, scale float64)

//go:noescape
func stage24AVX2(x *complex128, n int, w1r, w1i float64)

// installArchKernels swaps in the AVX2 kernels when the CPU and OS
// support them; pre-AVX2 hardware keeps the pure-Go reference.
func installArchKernels() {
	if !cpuSupportsAVX2() {
		return
	}
	kernelName = kernelAVX2
	stage24 = stage24Asm
	stage = stageAsm
	stageScale = stageScaleAsm
}

func stageAsm(x []complex128, size int, wt []complex128) {
	half := size >> 1
	if half < 4 || half&3 != 0 || len(wt) != half || len(x) == 0 || len(x)&(size-1) != 0 {
		stageGeneric(x, size, wt)
		return
	}
	stageAVX2(&x[0], len(x), size, &wt[0])
}

func stageScaleAsm(x []complex128, size int, wt []complex128, scale float64) {
	half := size >> 1
	if half < 4 || half&3 != 0 || len(wt) != half || len(x) == 0 || len(x)&(size-1) != 0 {
		stageScaleGeneric(x, size, wt, scale)
		return
	}
	stageScaleAVX2(&x[0], len(x), size, &wt[0], scale)
}

func stage24Asm(x []complex128, w1 complex128) {
	if len(x) < 4 || len(x)&3 != 0 {
		stage24Generic(x, w1)
		return
	}
	stage24AVX2(&x[0], len(x), real(w1), imag(w1))
}
