#include "textflag.h"

// The float64 vector loops of the exact-mode mass kernels. Every lane
// performs the rounded operations of the scalar code in the same order,
// so each result is bit-identical to the pure-Go loops: erf is Go's
// pure-Go math.erf (Go does not fuse multiply-adds on amd64, so neither
// does the erf here, and each / is a VDIVPD) and exp is the FMA sequence
// of math.archExp (exp_amd64.s, taken when the CPU has AVX and FMA).
// Branches become lane masks; a branch no lane takes is skipped with
// KORTESTW. The erf runs two independent 8-lane chains side by side (the
// two bounds of a row, or two groups of values), which keeps the long
// divide–Horner–exp dependency chain of one from idling the vector units.

// Scalar constants, broadcast from memory. The decimal literals are those
// of math/exp_amd64.s and math/erf.go, so they round to the same bits.
DATA k64<>+0(SB)/8, $1.4426950408889634073599246810018920     // LOG2E
DATA k64<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA k64<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA k64<>+24(SB)/8, $7.09782712893384e+02 // Overflow
DATA k64<>+32(SB)/8, $0.0625
DATA k64<>+40(SB)/8, $2.4801587301587301587e-5 // Taylor coefficients 1/8! … 1/3!
DATA k64<>+48(SB)/8, $1.9841269841269841270e-4
DATA k64<>+56(SB)/8, $1.3888888888888888889e-3
DATA k64<>+64(SB)/8, $8.3333333333333333333e-3
DATA k64<>+72(SB)/8, $4.1666666666666666667e-2
DATA k64<>+80(SB)/8, $1.6666666666666666667e-1
DATA k64<>+88(SB)/8, $0.5
DATA k64<>+96(SB)/8, $0x0010000000000000 // 2^-1022, ldexp's denormal step
DATA k64<>+104(SB)/8, $0x3e30000000000000 // Small = 2^-28
DATA k64<>+112(SB)/8, $0x0080000000000000 // VeryTiny
DATA k64<>+120(SB)/8, $0.84375
DATA k64<>+128(SB)/8, $1.25
DATA k64<>+136(SB)/8, $0x4006db6db6db6db7 // float64(1/0.35)
DATA k64<>+144(SB)/8, $6.0
DATA k64<>+152(SB)/8, $1.28379167095512586316e-01 // efx
DATA k64<>+160(SB)/8, $1.02703333676410069053e+00 // efx8
DATA k64<>+168(SB)/8, $8.0
DATA k64<>+176(SB)/8, $0.125
DATA k64<>+184(SB)/8, $8.45062911510467529297e-01 // erx
DATA k64<>+192(SB)/8, $0.5625
DATA k64<>+200(SB)/8, $0xffffffff00000000 // the high word of a float64
DATA k64<>+208(SB)/8, $0x7ff8000000000001 // math.NaN()
DATA k64<>+216(SB)/8, $1 // range-index step
DATA k64<>+224(SB)/8, $4 // numerator → denominator lanes of erf64Rows
DATA k64<>+232(SB)/4, $1023 // int32 lanes of ldexp: the exponent bias …
DATA k64<>+236(SB)/4, $-52 // … the underflow limit …
DATA k64<>+240(SB)/4, $2047 // … the overflow limit …
DATA k64<>+244(SB)/4, $1022 // … and the denormal rebias
GLOBL k64<>(SB), RODATA|NOPTR, $248

#define LOG2E k64<>+0(SB)
#define LN2U k64<>+8(SB)
#define LN2L k64<>+16(SB)
#define OVERFLOW k64<>+24(SB)
#define SIXTEENTH k64<>+32(SB)
#define EC8 k64<>+40(SB)
#define EC7 k64<>+48(SB)
#define EC6 k64<>+56(SB)
#define EC5 k64<>+64(SB)
#define EC4 k64<>+72(SB)
#define EC3 k64<>+80(SB)
#define HALF k64<>+88(SB)
#define TWOM1022 k64<>+96(SB)
#define SMALL k64<>+104(SB)
#define VERYTINY k64<>+112(SB)
#define ERFB k64<>+120(SB)
#define ERFC k64<>+128(SB)
#define ERFD k64<>+136(SB)
#define ERFE k64<>+144(SB)
#define EFX k64<>+152(SB)
#define EFX8 k64<>+160(SB)
#define EIGHT k64<>+168(SB)
#define EIGHTH k64<>+176(SB)
#define ERX k64<>+184(SB)
#define C05625 k64<>+192(SB)
#define HIWORD k64<>+200(SB)
#define NAN k64<>+208(SB)
#define ONEQ k64<>+216(SB)
#define FOURQ k64<>+224(SB)
#define BIAS k64<>+232(SB)
#define M52 k64<>+236(SB)
#define C2047 k64<>+240(SB)
#define C1022 k64<>+244(SB)

// CONSTS loads the register constants: Z31 sign bit, Z30 1.0, Z29 zero,
// Z28 2.0, Z27 +Inf.
#define CONSTS \
	MOVQ         $0x8000000000000000, AX \
	VPBROADCASTQ AX, Z31                 \
	MOVQ         $0x3ff0000000000000, AX \
	VPBROADCASTQ AX, Z30                 \
	VPXORQ       Z29, Z29, Z29           \
	MOVQ         $0x4000000000000000, AX \
	VPBROADCASTQ AX, Z28                 \
	MOVQ         $0x7ff0000000000000, AX \
	VPBROADCASTQ AX, Z27

// EXPCORE starts math.Exp(in) on 8 lanes, leaving in unchanged: it sets
// IY to the int32 lanes e and out to the r of archExp's avxfma path,
//
//	e := int32(round(in·LOG2E));  f := float64(e)
//	r := fma(−f, LN2L, fma(−f, LN2U, in)) · 0.0625
//	p := the Taylor chain on r, one FMA per coefficient, ending …+0.5, …+1
//	r = r·p;  r = r·(r+2) three times;  r = (r+2)·r + 1
//
// so that Exp(in) = ldexp(r, e). F, P and T are scratch.
#define EXPCORE(in, out, IY, F, P, T) \
	VMOVAPD           in, out             \
	VMULPD.BCST       LOG2E, in, F        \
	VCVTPD2DQ         F, IY               \
	VCVTDQ2PD         IY, F               \
	VFNMADD231PD.BCST LN2U, F, out        \
	VFNMADD231PD.BCST LN2L, F, out        \
	VMULPD.BCST       SIXTEENTH, out, out \
	VBROADCASTSD      EC8, P              \
	VFMADD213PD.BCST  EC7, out, P         \
	VFMADD213PD.BCST  EC6, out, P         \
	VFMADD213PD.BCST  EC5, out, P         \
	VFMADD213PD.BCST  EC4, out, P         \
	VFMADD213PD.BCST  EC3, out, P         \
	VFMADD213PD.BCST  HALF, out, P        \
	VFMADD213PD       Z30, out, P         \
	VMULPD            P, out, out         \
	VADDPD            Z28, out, T         \
	VMULPD            T, out, out         \
	VADDPD            Z28, out, T         \
	VMULPD            T, out, out         \
	VADDPD            Z28, out, T         \
	VMULPD            T, out, out         \
	VADDPD            Z28, out, T         \
	VFMADD213PD       Z30, T, out

// EXPN sets out = math.Exp(in) on lanes whose result is a normal number:
// ldexp there is r·2^e. IY/IZ name one scratch register at both widths.
#define EXPN(in, out, IY, IZ, F, P, T) \
	EXPCORE(in, out, IY, F, P, T) \
	VPADDD.BCST BIAS, IZ, IZ      \
	VPMOVZXDQ   IY, IZ            \
	VPSLLQ      $52, IZ, IZ       \
	VMULPD      IZ, out, out

// EXP8 sets out = math.Exp(in) on any 8 lanes, with all of archExp's
// ldexp — b = e+1023: b ≥ 2047 gives +Inf, b < −52 gives +0, and
// −52 ≤ b ≤ 0 is the denormal path r·2^(b−1)·2^−1022 — and then the cases
// archExp tests first: in > Overflow gives +Inf and a NaN returns itself.
// (−Inf already came out +0: its e is the int32 indefinite 0x80000000, an
// underflow.) K2–K4 are scratch too.
#define EXP8(in, out, IY, IZ, F, P, T) \
	EXPCORE(in, out, IY, F, P, T)          \
	VPADDD.BCST       BIAS, IZ, IZ         \
	VPCMPD            $2, Z29, IZ, K2      \
	VPCMPD.BCST       $1, M52, IZ, K3      \
	VPCMPD.BCST       $5, C2047, IZ, K4    \
	VPADDD.BCST       C1022, IZ, K2, IZ    \
	VPMOVZXDQ         IY, IZ               \
	VPSLLQ            $52, IZ, IZ          \
	VMULPD            IZ, out, out         \
	VMULPD.BCST       TWOM1022, out, K2, out \
	VMOVAPD           Z29, K3, out         \
	VMOVAPD           Z27, K4, out         \
	VCMPPD.BCST       $14, OVERFLOW, in, K2 \
	VMOVAPD           Z27, K2, out         \
	VCMPPD            $3, in, in, K3       \
	VMOVAPD           in, K3, out

// The erf of x, per lane, with ax = |x| (math.erf negates a negative x;
// the two differ only at x = −0, where both give −0: math.erf takes the
// tiny path on −0 itself, here +0 takes it and the sign is restored):
//
//	ax < 2^-28:       ax < VeryTiny ? 0.125·(8·ax + efx8·ax) : ax + efx·ax
//	A  ax < 0.84375:  ax + ax·(pp(v)/qq(v)),            v = ax·ax
//	B  ax < 1.25:     erx + pa(v)/qa(v),                v = ax − 1
//	C  ax < 1/0.35:   1 − Exp(−z·z − 0.5625)·Exp((z−ax)·(z+ax) + ra(v)/sa(v))/ax
//	D  ax < 6:        the same with rb/sb;  v = 1/(ax·ax), z = ax's high word
//	   otherwise:     1  (+Inf too)
//
// then the sign bit of x is put back (round to nearest is symmetric, so
// −erx − q, r/x − 1 and −temp are exactly the negated results) and a NaN
// x gives math.NaN(). A–D share one Horner pass and one divide: each lane
// reads its own coefficients from erf64Rows by its range index (VPERMPD),
// the shorter polynomials padded with leading zero coefficients, which is
// exact for a finite v.

// ERFRANGE sets a lane's range index (0 A, 1 B, 2 C, 3 D) in idx, idx+4
// in idxd and the rational's variable in v; sq is scratch.
#define ERFRANGE(ax, idx, idxd, sq, v) \
	VCMPPD.BCST $13, ERFB, ax, K2 \
	VCMPPD.BCST $13, ERFC, ax, K3 \
	VCMPPD.BCST $13, ERFD, ax, K4 \
	VPXORQ      idx, idx, idx     \
	VPADDQ.BCST ONEQ, idx, K2, idx \
	VPADDQ.BCST ONEQ, idx, K3, idx \
	VPADDQ.BCST ONEQ, idx, K4, idx \
	VPADDQ.BCST FOURQ, idx, idxd  \
	VMULPD      ax, ax, sq        \
	VMOVAPD     sq, v             \
	VSUBPD      Z30, ax, K2, v    \
	VDIVPD      sq, Z30, K3, v

// HINIT starts the Horner pass: num = the degree-7 numerator coefficient,
// den = the degree-8 denominator coefficient times v plus the degree-7
// one. R8 holds erf64Rows; row k is at 64·k.
#define HINIT(idx, idxd, v, num, den, c) \
	VPERMPD 448(R8), idx, num  \
	VPERMPD 512(R8), idxd, den \
	VPERMPD 448(R8), idxd, c   \
	VMULPD  v, den, den        \
	VADDPD  c, den, den

// HSTEP is one Horner step: num = num·v + row[idx], den = den·v + row[idxd].
#define HSTEP(row, idx, idxd, v, num, den, c) \
	VPERMPD row(R8), idx, c  \
	VMULPD  v, num, num      \
	VADDPD  c, num, num      \
	VPERMPD row(R8), idxd, c \
	VMULPD  v, den, den      \
	VADDPD  c, den, den

// HORNER runs the steps for rows 6 … 0 on chains A and B alternately.
#define HORNER \
	HSTEP(384, Z4, Z5, Z6, Z3, Z7, Z8)       \
	HSTEP(384, Z14, Z15, Z16, Z13, Z17, Z18) \
	HSTEP(320, Z4, Z5, Z6, Z3, Z7, Z8)       \
	HSTEP(320, Z14, Z15, Z16, Z13, Z17, Z18) \
	HSTEP(256, Z4, Z5, Z6, Z3, Z7, Z8)       \
	HSTEP(256, Z14, Z15, Z16, Z13, Z17, Z18) \
	HSTEP(192, Z4, Z5, Z6, Z3, Z7, Z8)       \
	HSTEP(192, Z14, Z15, Z16, Z13, Z17, Z18) \
	HSTEP(128, Z4, Z5, Z6, Z3, Z7, Z8)       \
	HSTEP(128, Z14, Z15, Z16, Z13, Z17, Z18) \
	HSTEP(64, Z4, Z5, Z6, Z3, Z7, Z8)        \
	HSTEP(64, Z14, Z15, Z16, Z13, Z17, Z18)  \
	HSTEP(0, Z4, Z5, Z6, Z3, Z7, Z8)         \
	HSTEP(0, Z14, Z15, Z16, Z13, Z17, Z18)

// CDARGS sets e1 = −z·z − 0.5625 and e2 = (z−ax)·(z+ax) + q; z is scratch.
#define CDARGS(ax, q, e1, e2, z) \
	VPANDQ.BCST HIWORD, ax, z  \
	VMULPD      z, z, e1       \
	VXORPD      Z31, e1, e1    \
	VSUBPD.BCST C05625, e1, e1 \
	VSUBPD      ax, z, e2      \
	VADDPD      ax, z, z       \
	VMULPD      z, e2, e2      \
	VADDPD      q, e2, e2

// CDRESULT sets res = 1 − e1·e2/ax, then back to 1 where ax ≥ 6.
#define CDRESULT(ax, res, e1, e2) \
	VMULPD      e2, e1, e1     \
	VDIVPD      ax, e1, e1     \
	VSUBPD      e1, Z30, res   \
	VCMPPD.BCST $13, ERFE, ax, K2 \
	VMOVAPD     Z30, K2, res

// ABRESULT sets res = erx + q where ax < 1.25 and ax + ax·q where
// ax < 0.84375; t is scratch.
#define ABRESULT(ax, q, res, t) \
	VCMPPD.BCST $1, ERFC, ax, K2  \
	VADDPD.BCST ERX, q, K2, res   \
	VCMPPD.BCST $1, ERFB, ax, K2  \
	VMULPD      q, ax, t          \
	VADDPD      t, ax, K2, res

// TINY sets res to the tiny-path value in the lanes of K (ax < 2^-28);
// t1–t3 are scratch.
#define TINY(ax, res, K, t1, t2, t3) \
	VCMPPD.BCST $1, VERYTINY, ax, K3 \
	VMULPD.BCST EFX, ax, t1      \
	VADDPD      t1, ax, t1       \
	VMULPD.BCST EIGHT, ax, t2    \
	VMULPD.BCST EFX8, ax, t3     \
	VADDPD      t3, t2, t2       \
	VMULPD.BCST EIGHTH, t2, t2   \
	VMOVAPD     t2, K3, t1       \
	VMOVAPD     t1, K, res

// SIGN puts x's sign bit on res and makes a NaN x's lanes math.NaN().
#define SIGN(x, res, t) \
	VPANDQ       Z31, x, t    \
	VPXORQ       t, res, res  \
	VCMPPD       $3, x, x, K2 \
	VBROADCASTSD NAN, K2, res

// ERF2 sets Z2 = erf(Z0) (chain A) and Z12 = erf(Z10) (chain B). It
// clobbers Z0–Z23 except Z0 and Z10, and K1–K4; it needs CONSTS and R8 =
// erf64Rows. Its labels make it usable once per TEXT block. Its exps can
// be EXPN: in the lanes that keep a C or D result the arguments lie in
// [−37, 0] (−z·z − 0.5625 ≥ −36.6, and the R/S of ranges C and D is in
// [−0.22, 0]), where the results are normal numbers.
#define ERF2 \
	VPANDNQ     Z0, Z31, Z1            \
	VPANDNQ     Z10, Z31, Z11          \
	VMOVAPD     Z30, Z2                \
	VMOVAPD     Z30, Z12               \
	VCMPPD.BCST $13, SMALL, Z1, K1     \
	VCMPPD.BCST $1, ERFE, Z1, K1, K1   \
	VCMPPD.BCST $13, SMALL, Z11, K2    \
	VCMPPD.BCST $1, ERFE, Z11, K2, K2  \
	KORTESTW    K1, K2                 \
	JZ          erftiny                \
	ERFRANGE(Z1, Z4, Z5, Z9, Z6)       \
	ERFRANGE(Z11, Z14, Z15, Z19, Z16)  \
	HINIT(Z4, Z5, Z6, Z3, Z7, Z8)      \
	HINIT(Z14, Z15, Z16, Z13, Z17, Z18) \
	HORNER                             \
	VDIVPD      Z7, Z3, Z3             \
	VDIVPD      Z17, Z13, Z13          \
	VCMPPD.BCST $13, ERFC, Z1, K1      \
	VCMPPD.BCST $1, ERFE, Z1, K1, K1   \
	VCMPPD.BCST $13, ERFC, Z11, K2     \
	VCMPPD.BCST $1, ERFE, Z11, K2, K2  \
	KORTESTW    K1, K2                 \
	JZ          erfab                  \
	CDARGS(Z1, Z3, Z4, Z5, Z6)         \
	CDARGS(Z11, Z13, Z14, Z15, Z16)    \
	EXPN(Z4, Z6, Y20, Z20, Z21, Z22, Z23) \
	EXPN(Z14, Z16, Y20, Z20, Z21, Z22, Z23) \
	EXPN(Z5, Z7, Y20, Z20, Z21, Z22, Z23) \
	EXPN(Z15, Z17, Y20, Z20, Z21, Z22, Z23) \
	CDRESULT(Z1, Z2, Z6, Z7)           \
	CDRESULT(Z11, Z12, Z16, Z17)       \
erfab:                                 \
	ABRESULT(Z1, Z3, Z2, Z4)           \
	ABRESULT(Z11, Z13, Z12, Z14)       \
erftiny:                               \
	VCMPPD.BCST $1, SMALL, Z1, K1      \
	VCMPPD.BCST $1, SMALL, Z11, K2     \
	KORTESTW    K1, K2                 \
	JZ          erfsign                \
	TINY(Z1, Z2, K1, Z4, Z5, Z6)       \
	TINY(Z11, Z12, K2, Z14, Z15, Z16)  \
erfsign:                               \
	SIGN(Z0, Z2, Z4)                   \
	SIGN(Z10, Z12, Z14)

// func gaussianMass64AVX512(dst, col *float64, n int, l, u, inv float64)
//
// Per 8 rows: dst = 0.5·(erf((u−t)·inv) − erf((l−t)·inv)), the
// gaussianMassFillGo expression; dst may be col.
TEXT ·gaussianMass64AVX512(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	JZ           filldone
	CONSTS
	LEAQ         ·erf64Rows(SB), R8
	VBROADCASTSD l+24(FP), Z25
	VBROADCASTSD u+32(FP), Z24
	VBROADCASTSD inv+40(FP), Z26

fillloop:
	VMOVUPD     (SI), Z4
	VSUBPD      Z4, Z24, Z0
	VMULPD      Z26, Z0, Z0 // (u−t)·inv
	VSUBPD      Z4, Z25, Z10
	VMULPD      Z26, Z10, Z10 // (l−t)·inv
	ERF2
	VSUBPD      Z12, Z2, Z2
	VMULPD.BCST HALF, Z2, Z2
	VMOVUPD     Z2, (DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        CX
	JNZ         fillloop

filldone:
	VZEROUPPER
	RET

// func gaussianMassGrad64AVX512(mdst, gdst, col *float64, n int, l, u, inv, c1, c2 float64)
//
// Per 8 rows, with dl = l−t and du = u−t, the gaussianMassGradFillGo
// expressions: mdst = 0.5·(erf(du·inv) − erf(dl·inv)) and
// gdst = c1·(dl·exp(−dl·dl·c2) − du·exp(−du·du·c2)).
TEXT ·gaussianMassGrad64AVX512(SB), NOSPLIT, $0-72
	MOVQ         mdst+0(FP), DI
	MOVQ         gdst+8(FP), BX
	MOVQ         col+16(FP), SI
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	JZ           graddone
	CONSTS
	LEAQ         ·erf64Rows(SB), R8
	VBROADCASTSD l+32(FP), Z25
	VBROADCASTSD u+40(FP), Z24
	VBROADCASTSD inv+48(FP), Z26

gradloop:
	VMOVUPD     (SI), Z4
	VSUBPD      Z4, Z24, Z0
	VMULPD      Z26, Z0, Z0 // du·inv
	VSUBPD      Z4, Z25, Z10
	VMULPD      Z26, Z10, Z10 // dl·inv
	ERF2
	VSUBPD      Z12, Z2, Z2
	VMULPD.BCST HALF, Z2, Z2
	VMOVUPD     Z2, (DI)

	VMOVUPD     (SI), Z4
	VSUBPD      Z4, Z25, Z5 // dl
	VSUBPD      Z4, Z24, Z6 // du
	VXORPD      Z31, Z5, Z7
	VMULPD      Z5, Z7, Z7
	VMULPD.BCST c2+64(FP), Z7, Z7 // −dl·dl·c2
	VXORPD      Z31, Z6, Z8
	VMULPD      Z6, Z8, Z8
	VMULPD.BCST c2+64(FP), Z8, Z8 // −du·du·c2
	EXP8(Z7, Z9, Y20, Z20, Z21, Z22, Z23)
	EXP8(Z8, Z11, Y12, Z12, Z13, Z14, Z15)
	VMULPD      Z9, Z5, Z9
	VMULPD      Z11, Z6, Z11
	VSUBPD      Z11, Z9, Z9
	VMULPD.BCST c1+56(FP), Z9, Z9
	VMOVUPD     Z9, (BX)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	DECQ CX
	JNZ  gradloop

graddone:
	VZEROUPPER
	RET

// func compressLive64(buf, dst, col *float64, n int) int
//
// Packs col[i] for the rows with dst[i] ≠ 0 (NaN included: the rows
// gaussianMassMulGo multiplies) into buf, in row order, and returns how
// many; n is a multiple of 8.
TEXT ·compressLive64(SB), NOSPLIT, $0-40
	MOVQ   buf+0(FP), R8
	MOVQ   dst+8(FP), DI
	MOVQ   col+16(FP), SI
	MOVQ   n+24(FP), CX
	MOVQ   R8, R9
	SHRQ   $3, CX
	JZ     compressdone
	VPXORQ Z29, Z29, Z29

compressloop:
	VCMPPD      $4, (DI), Z29, K1
	VMOVUPD     (SI), Z0
	VCOMPRESSPD Z0, K1, (R8)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	LEAQ        (R8)(AX*8), R8
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        CX
	JNZ         compressloop

compressdone:
	SUBQ R9, R8
	SHRQ $3, R8
	MOVQ R8, ret+32(FP)
	VZEROUPPER
	RET

// func mulLive64(dst, buf *float64, n int)
//
// The inverse of compressLive64: multiplies each row with dst[i] ≠ 0 by
// the next packed mass m of buf and leaves the ±0 rows' bits alone; n is
// a multiple of 8. The product is m·dst with m the first operand, as the
// compiled gaussianMassMulGo computes it: when both are NaN, x86 returns
// the first operand's NaN.
TEXT ·mulLive64(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   buf+8(FP), R8
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	JZ     muldone
	VPXORQ Z29, Z29, Z29

mulloop:
	VMOVUPD    (DI), Z0
	VCMPPD     $4, Z29, Z0, K1
	VEXPANDPD  (R8), K1, Z1
	VMULPD     Z0, Z1, K1, Z0 // m·dst: on two NaNs m's wins, as in the Go loop
	VMOVUPD    Z0, (DI)
	KMOVW      K1, AX
	POPCNTL    AX, AX
	LEAQ       (R8)(AX*8), R8
	ADDQ       $64, DI
	DECQ       CX
	JNZ        mulloop

muldone:
	VZEROUPPER
	RET

// func erfAVX512(x *float64, n int)
TEXT ·erfAVX512(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $4, CX
	JZ   erfdone
	CONSTS
	LEAQ ·erf64Rows(SB), R8

erfloop:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z10
	ERF2
	VMOVUPD Z2, (DI)
	VMOVUPD Z12, 64(DI)
	ADDQ    $128, DI
	DECQ    CX
	JNZ     erfloop

erfdone:
	VZEROUPPER
	RET

// func expAVX512(x *float64, n int)
TEXT ·expAVX512(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $3, CX
	JZ   expdone
	CONSTS

exploop:
	VMOVUPD (DI), Z0
	EXP8(Z0, Z1, Y17, Z17, Z18, Z19, Z20)
	VMOVUPD Z1, (DI)
	ADDQ    $64, DI
	DECQ    CX
	JNZ     exploop

expdone:
	VZEROUPPER
	RET
