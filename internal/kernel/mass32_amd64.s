#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ERF16 is the erf32 segment-table evaluation on 16 lanes: it turns the
// scaled bound x into erf32(x), using AX_, SG, IX, W and C as scratch. The
// operations and their order are those of the scalar loops in kernel32.go
// (separate multiply and add, no FMA), so every lane rounds identically:
//
//	sign := bits(x)&sign32 | one32;  ax := bits(x) &^ sign32
//	if ax < Erf32Tail (unsigned on the bits; NaN and +Inf fail it):
//		k := int32(ax*Erf32Scale);  w := ax − (float32(k)+0.5)·(1/Erf32Scale)
//		x = sign · (((c3[k]·w + c2[k])·w + c1[k])·w + c0[k])
//	else
//		x = sign
//
// The coefficient lookups are VPERMT2PS over the two registers holding
// each coefficient's 32 segments (Z0..Z7); the index register's low five
// bits select the segment, which is the scalar `& (Erf32Segs−1)`.
#define ERF16(x, AX_, SG, IX, W, C) \
	VPANDD     Z11, x, AX_    \
	VPANDD     Z12, x, SG     \
	VPORD      Z13, SG, SG    \
	VPCMPUD    $1, Z14, AX_, K1 \
	VMULPS     Z15, AX_, IX   \
	VCVTTPS2DQ IX, IX         \
	VCVTDQ2PS  IX, W          \
	VADDPS     Z16, W, W      \
	VMULPS     Z17, W, W      \
	VSUBPS     W, AX_, W      \
	VMOVAPS    Z6, x          \
	VPERMT2PS  Z7, IX, x      \
	VMULPS     W, x, x        \
	VMOVAPS    Z4, C          \
	VPERMT2PS  Z5, IX, C      \
	VADDPS     C, x, x        \
	VMULPS     W, x, x        \
	VMOVAPS    Z2, C          \
	VPERMT2PS  Z3, IX, C      \
	VADDPS     C, x, x        \
	VMULPS     W, x, x        \
	VMOVAPS    Z0, C          \
	VPERMT2PS  Z1, IX, C      \
	VADDPS     C, x, x        \
	VMULPS     x, SG, x       \
	VBLENDMPS  x, SG, K1, x

// func gaussianMass32AVX512(dst, col *float32, n int, l, u, inv float32, mul bool) int
//
// Per 16 rows: m = ½·(erf32((u−t)·inv) − erf32((l−t)·inv)). Fill stores m
// and counts m ≠ 0. Mul follows gaussianMassMul32Go lane by lane: a lane
// whose dst is ±0 keeps its dst bits and is not counted (the scalar loop
// skips that row); any other lane stores p = dst·m, or +0 when |p| <
// massFloor32, and is counted unless it was zeroed.
TEXT ·gaussianMass32AVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ col+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	XORQ R9, R9

	// erf32SoA: c0 in Z0:Z1, c1 in Z2:Z3, c2 in Z4:Z5, c3 in Z6:Z7.
	LEAQ    ·erf32SoA(SB), AX
	VMOVUPS 0(AX), Z0
	VMOVUPS 64(AX), Z1
	VMOVUPS 128(AX), Z2
	VMOVUPS 192(AX), Z3
	VMOVUPS 256(AX), Z4
	VMOVUPS 320(AX), Z5
	VMOVUPS 384(AX), Z6
	VMOVUPS 448(AX), Z7

	VBROADCASTSS l+24(FP), Z9
	VBROADCASTSS u+28(FP), Z8
	VBROADCASTSS inv+32(FP), Z10
	MOVL         $0x7fffffff, AX // ^sign32
	VPBROADCASTD AX, Z11
	MOVL         $0x80000000, AX // sign32
	VPBROADCASTD AX, Z12
	MOVL         $0x3f800000, AX // one32
	VPBROADCASTD AX, Z13
	MOVL         $0x40800000, AX // Erf32Tail = 4
	VPBROADCASTD AX, Z14
	MOVL         $0x41000000, AX // Erf32Scale = 8
	VPBROADCASTD AX, Z15
	MOVL         $0x3f000000, AX // 0.5
	VPBROADCASTD AX, Z16
	MOVL         $0x3e000000, AX // 1/Erf32Scale = 0.125
	VPBROADCASTD AX, Z17
	MOVL         $0x0da24260, AX // massFloor32 = 1e-30
	VPBROADCASTD AX, Z18
	VPXORD       Z31, Z31, Z31

	MOVBLZX mul+36(FP), BX

loop:
	VMOVUPS (SI), Z19
	VSUBPS  Z19, Z8, Z20 // u − t
	VMULPS  Z10, Z20, Z20
	VSUBPS  Z19, Z9, Z21 // l − t
	VMULPS  Z10, Z21, Z21
	ERF16(Z20, Z22, Z23, Z24, Z25, Z26)
	ERF16(Z21, Z27, Z28, Z29, Z30, Z19)
	VSUBPS  Z21, Z20, Z20
	VMULPS  Z16, Z20, Z20 // m

	TESTB BX, BX
	JNZ   mul

	VMOVUPS Z20, (DI)
	VCMPPS  $4, Z31, Z20, K2 // m ≠ 0
	JMP     next

mul:
	VMOVUPS (DI), Z21
	VMULPS  Z20, Z21, Z20       // p = dst·m
	VCMPPS  $4, Z31, Z21, K3    // live: dst ≠ 0 (NaN is live)
	VPANDD  Z11, Z20, Z22       // |p|
	VCMPPS  $5, Z18, Z22, K3, K2 // kept: live and !(|p| < floor)
	VMOVAPS Z31, K3, Z21        // live lanes start at +0 …
	VMOVAPS Z20, K2, Z21        // … and kept lanes take p
	VMOVUPS Z21, (DI)

next:
	KMOVW   K2, AX
	POPCNTL AX, AX
	ADDQ    AX, R9
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	MOVQ R9, ret+40(FP)
	RET
