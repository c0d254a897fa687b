//go:build arm64 && !purego

#include "textflag.h"

// NEON butterfly stage kernels. Go's assembler has no mnemonics for the
// ASIMD floating-point arithmetic instructions, so those are emitted as
// WORD-encoded machine words behind the macros below; each encoding was
// verified to disassemble to the intended instruction. Operand order in
// the macros follows the architectural one: (m, n, d) computes
// d = n OP m elementwise.
//
// Complex multiplication (b = hi*w): dup w's real and imaginary parts,
// t1 = hi*wr, t2 = swap(hi)*wi, flip the sign of t2's real lane with
// VEOR (a-b == a+(-b) in IEEE-754), then b = t1 + t2 — the same
// individually rounded products, differences and (commuted) sums the
// pure-Go reference computes, so outputs are value-identical. No FMLA
// anywhere: fusing would change the rounding.

// FADD Vd.2D, Vn.2D, Vm.2D
#define FADD2D(m, n, d) WORD $(0x4E60D400 | ((m)<<16) | ((n)<<5) | (d))
// FSUB Vd.2D, Vn.2D, Vm.2D
#define FSUB2D(m, n, d) WORD $(0x4EE0D400 | ((m)<<16) | ((n)<<5) | (d))
// FMUL Vd.2D, Vn.2D, Vm.2D
#define FMUL2D(m, n, d) WORD $(0x6E60DC00 | ((m)<<16) | ((n)<<5) | (d))

// SIGNMASK64 sets V28 = [0x8000000000000000, 0]: XORing flips the sign
// of a complex128's real lane only.
#define SIGNMASK64 \
	MOVD $0x8000000000000000, R7 \
	VMOV R7, V28.D[0]            \
	MOVD $0, R7                  \
	VMOV R7, V28.D[1]


// func stageNEON(x *complex128, n, size int, wt *complex128)
//
// One radix-2 stage over every size-aligned block of x, 2 butterflies
// (2 q-registers) per inner iteration. half = size/2 is a multiple of 4
// (wrapper-enforced), so the inner loop has no tail.
TEXT ·stageNEON(SB), NOSPLIT, $0-32
	MOVD x+0(FP), R0
	MOVD n+8(FP), R1
	MOVD size+16(FP), R2
	MOVD wt+24(FP), R3
	LSL  $3, R2, R4      // halfB = size/2 * 16
	LSL  $4, R2, R5      // sizeB
	LSL  $4, R1, R6      // nB
	SIGNMASK64
	MOVD $0, R8          // block offset in bytes

nblock:
	ADD  R8, R0, R9      // lo ptr
	ADD  R4, R9, R10     // hi ptr
	MOVD R3, R11         // wt ptr
	MOVD R4, R12         // bytes left in half

nk:
	VLD1   (R10), [V0.D2, V1.D2]     // hi h0, h1
	VLD1.P 32(R11), [V2.D2, V3.D2]   // w0, w1
	VDUP   V2.D[0], V4.D2            // [w0r, w0r]
	VDUP   V3.D[0], V5.D2
	VDUP   V2.D[1], V6.D2            // [w0i, w0i]
	VDUP   V3.D[1], V7.D2
	VEXT   $8, V0.B16, V0.B16, V16.B16 // swap(h0)
	VEXT   $8, V1.B16, V1.B16, V17.B16
	FMUL2D(4, 0, 8)                  // t1 = hi * wr
	FMUL2D(5, 1, 9)
	FMUL2D(6, 16, 10)                // t2 = swap(hi) * wi
	FMUL2D(7, 17, 11)
	VEOR   V28.B16, V10.B16, V10.B16 // negate t2's real lane
	VEOR   V28.B16, V11.B16, V11.B16
	FADD2D(10, 8, 8)                 // b = t1 + (-re t2)
	FADD2D(11, 9, 9)
	VLD1   (R9), [V12.D2, V13.D2]    // lo
	FADD2D(8, 12, 20)                // lo + b
	FADD2D(9, 13, 21)
	FSUB2D(8, 12, 22)                // lo - b
	FSUB2D(9, 13, 23)
	VST1.P [V20.D2, V21.D2], 32(R9)
	VST1.P [V22.D2, V23.D2], 32(R10)
	SUBS   $32, R12, R12
	BNE    nk
	ADD    R5, R8, R8
	CMP    R6, R8
	BLT    nblock
	RET

// func stageScaleNEON(x *complex128, n, size int, wt *complex128, scale float64)
//
// stageNEON with a uniform scaling of both butterfly outputs — the
// final inverse stage folds its 1/N here.
TEXT ·stageScaleNEON(SB), NOSPLIT, $0-40
	MOVD  x+0(FP), R0
	MOVD  n+8(FP), R1
	MOVD  size+16(FP), R2
	MOVD  wt+24(FP), R3
	FMOVD scale+32(FP), F29
	VDUP  V29.D[0], V29.D2
	LSL   $3, R2, R4
	LSL   $4, R2, R5
	LSL   $4, R1, R6
	SIGNMASK64
	MOVD  $0, R8

nsblock:
	ADD  R8, R0, R9
	ADD  R4, R9, R10
	MOVD R3, R11
	MOVD R4, R12

nsk:
	VLD1   (R10), [V0.D2, V1.D2]
	VLD1.P 32(R11), [V2.D2, V3.D2]
	VDUP   V2.D[0], V4.D2
	VDUP   V3.D[0], V5.D2
	VDUP   V2.D[1], V6.D2
	VDUP   V3.D[1], V7.D2
	VEXT   $8, V0.B16, V0.B16, V16.B16
	VEXT   $8, V1.B16, V1.B16, V17.B16
	FMUL2D(4, 0, 8)
	FMUL2D(5, 1, 9)
	FMUL2D(6, 16, 10)
	FMUL2D(7, 17, 11)
	VEOR   V28.B16, V10.B16, V10.B16
	VEOR   V28.B16, V11.B16, V11.B16
	FADD2D(10, 8, 8)
	FADD2D(11, 9, 9)
	VLD1   (R9), [V12.D2, V13.D2]
	FADD2D(8, 12, 20)
	FADD2D(9, 13, 21)
	FSUB2D(8, 12, 22)
	FSUB2D(9, 13, 23)
	FMUL2D(29, 20, 20)               // fold scale into the stores
	FMUL2D(29, 21, 21)
	FMUL2D(29, 22, 22)
	FMUL2D(29, 23, 23)
	VST1.P [V20.D2, V21.D2], 32(R9)
	VST1.P [V22.D2, V23.D2], 32(R10)
	SUBS   $32, R12, R12
	BNE    nsk
	ADD    R5, R8, R8
	CMP    R6, R8
	BLT    nsblock
	RET

// func stage24NEON(x *complex128, n int, w1r, w1i float64)
//
// Fused size-2 and size-4 stages, one 4-complex group per iteration.
// Only the group's fourth output needs a true complex multiply (by
// w1 = tw[n/4]); the rest are adds and subtracts.
TEXT ·stage24NEON(SB), NOSPLIT, $0-32
	MOVD  x+0(FP), R0
	MOVD  n+8(FP), R1
	FMOVD w1r+16(FP), F26
	VDUP  V26.D[0], V26.D2
	FMOVD w1i+24(FP), F27
	VDUP  V27.D[0], V27.D2
	SIGNMASK64
	ADD   R1<<4, R0, R3  // end pointer

n24:
	VLD1   (R0), [V0.D2, V1.D2, V2.D2, V3.D2]
	FADD2D(1, 0, 4)                  // b0 = a0 + a1
	FSUB2D(1, 0, 5)                  // b1 = a0 - a1
	FADD2D(3, 2, 6)                  // b2 = a2 + a3
	FSUB2D(3, 2, 7)                  // b3 = a2 - a3
	VEXT   $8, V7.B16, V7.B16, V8.B16
	FMUL2D(26, 7, 7)                 // b3 * w1r
	FMUL2D(27, 8, 8)                 // swap(b3) * w1i
	VEOR   V28.B16, V8.B16, V8.B16
	FADD2D(8, 7, 7)                  // t3 = b3 * w1
	FADD2D(6, 4, 20)                 // x[s]   = b0 + b2
	FADD2D(7, 5, 21)                 // x[s+1] = b1 + t3
	FSUB2D(6, 4, 22)                 // x[s+2] = b0 - b2
	FSUB2D(7, 5, 23)                 // x[s+3] = b1 - t3
	VST1.P [V20.D2, V21.D2, V22.D2, V23.D2], 64(R0)
	CMP    R3, R0
	BLT    n24
	RET
