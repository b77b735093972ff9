#include "textflag.h"

// AVX2 encoding of the np = 4 bodies in operators.go. One ymm register
// holds the four nodes of a GLL row, and every lane performs exactly the
// Go body's operations in the Go body's order: separate VMULPD and
// VADDPD/VSUBPD/VDIVPD (never a fused multiply-add, which rounds once),
// and the leading 0.0 + of each m-reduction kept as an add of a zeroed
// register, so a -0 sum still becomes +0. Within a pass DX is the byte
// offset 32·j of GLL row j; Y15 holds zero, Y14 fac and Y13 Rrearth.

// TRANSPOSE4 transposes the 4x4 block in r0..r3 in place: afterwards rK
// holds lane K of the four input rows. t0..t3 are clobbered.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPD  r1, r0, t0; \
	VUNPCKHPD  r1, r0, t1; \
	VUNPCKLPD  r3, r2, t2; \
	VUNPCKHPD  r3, r2, t3; \
	VPERM2F128 $0x20, t2, t0, r0; \
	VPERM2F128 $0x20, t3, t1, r1; \
	VPERM2F128 $0x31, t2, t0, r2; \
	VPERM2F128 $0x31, t3, t1, r3

// LOAD4 loads the four rows of the slab at base into r0..r3.
#define LOAD4(base, r0, r1, r2, r3) \
	VMOVUPD 0(base), r0; \
	VMOVUPD 32(base), r1; \
	VMOVUPD 64(base), r2; \
	VMOVUPD 96(base), r3

// METRIC loads row j's block of a node-interleaved metric at base
// ([4n+k], 128 bytes a row) and transposes it, so kK holds coefficient K
// of the row's four nodes. t0..t3 are clobbered.
#define METRIC(base, k0, k1, k2, k3, t0, t1, t2, t3) \
	VMOVUPD 0(base)(DX*4), k0; \
	VMOVUPD 32(base)(DX*4), k1; \
	VMOVUPD 64(base)(DX*4), k2; \
	VMOVUPD 96(base)(DX*4), k3; \
	TRANSPOSE4(k0, k1, k2, k3, t0, t1, t2, t3)

// CHAIN4 sets acc = 0.0 + x0·s0 + x1·s1 + x2·s2 + x3·s3, left to right,
// where sM is node M of row j of the slab at base, broadcast to every
// lane. t is clobbered.
#define CHAIN4(base, x0, x1, x2, x3, acc, t) \
	VBROADCASTSD 0(base)(DX*1), acc; \
	VMULPD       x0, acc, acc; \
	VADDPD       acc, Y15, acc; \
	VBROADCASTSD 8(base)(DX*1), t; \
	VMULPD       x1, t, t; \
	VADDPD       t, acc, acc; \
	VBROADCASTSD 16(base)(DX*1), t; \
	VMULPD       x2, t, t; \
	VADDPD       t, acc, acc; \
	VBROADCASTSD 24(base)(DX*1), t; \
	VMULPD       x3, t, t; \
	VADDPD       t, acc, acc

// DERIV sets da and db to row j of deriv4's two m-reductions: da from
// row j of the slab at a against D^T in Y0..Y3, db from row j of D at d
// against the rows of b held in Y4..Y7. Y10 is clobbered.
#define DERIV(a, d, da, db) \
	CHAIN4(a, Y0, Y1, Y2, Y3, da, Y10); \
	CHAIN4(d, Y4, Y5, Y6, Y7, db, Y10)

// PROLOGUE sets the constant registers and loads D^T into Y0..Y3.
#define PROLOGUE(d, fac, rrearth) \
	VXORPD       Y15, Y15, Y15; \
	VBROADCASTSD fac, Y14; \
	VBROADCASTSD rrearth, Y13; \
	LOAD4(d, Y0, Y1, Y2, Y3); \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

// NEXTROW advances DX to the next GLL row and loops to label until the
// four rows are done.
#define NEXTROW(label) \
	ADDQ $32, DX; \
	CMPQ DX, $128; \
	JNE  label

// func gradient4AVX2(d *slab4, dinv *metric4, fac, rrearth float64, s, gx, gy, da, db *slab4)
TEXT ·gradient4AVX2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), AX
	MOVQ dinv+8(FP), BX
	MOVQ s+32(FP), SI
	MOVQ gx+40(FP), DI
	MOVQ gy+48(FP), R8
	MOVQ da+56(FP), R9
	MOVQ db+64(FP), R10
	PROLOGUE(AX, fac+16(FP), rrearth+24(FP))
	LOAD4(SI, Y4, Y5, Y6, Y7)

	// da, db = fac·deriv4(s, s); s is read before anything is written,
	// so gx may alias it.
	XORQ DX, DX

gradDeriv:
	DERIV(SI, AX, Y8, Y9)
	VMULPD  Y14, Y8, Y8
	VMULPD  Y14, Y9, Y9
	VMOVUPD Y8, (R9)(DX*1)
	VMOVUPD Y9, (R10)(DX*1)
	NEXTROW(gradDeriv)

	// gx = (dinv0·a + dinv2·b)·Rrearth, gy = (dinv1·a + dinv3·b)·Rrearth.
	XORQ DX, DX

gradMetric:
	VMOVUPD (R9)(DX*1), Y8
	VMOVUPD (R10)(DX*1), Y9
	METRIC(BX, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMULPD  Y8, Y0, Y0
	VMULPD  Y9, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMOVUPD Y0, (DI)(DX*1)
	VMULPD  Y8, Y1, Y1
	VMULPD  Y9, Y3, Y3
	VADDPD  Y3, Y1, Y1
	VMULPD  Y13, Y1, Y1
	VMOVUPD Y1, (R8)(DX*1)
	NEXTROW(gradMetric)

	VZEROUPPER
	RET

// FLUX loads row j of u and v into Y8, Y9 and of metdet into Y10, and
// the row's metric coefficients into Y0..Y3.
#define FLUX(met, u, v, metdet) \
	METRIC(met, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7); \
	VMOVUPD (u)(DX*1), Y8; \
	VMOVUPD (v)(DX*1), Y9; \
	VMOVUPD (metdet)(DX*1), Y10

// SCALE sets out = ((x·fac)·Rrearth)/metdet for row j and stores it.
#define SCALE(x, metdet, out) \
	VMULPD  Y14, x, x; \
	VMULPD  Y13, x, x; \
	VMOVUPD (metdet)(DX*1), Y11; \
	VDIVPD  Y11, x, x; \
	VMOVUPD x, (out)(DX*1)

// func divergence4AVX2(d *slab4, dinv *metric4, metdet *slab4, fac, rrearth float64, u, v, div, gv1, gv2 *slab4)
TEXT ·divergence4AVX2(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), AX
	MOVQ dinv+8(FP), BX
	MOVQ metdet+16(FP), CX
	MOVQ u+40(FP), SI
	MOVQ v+48(FP), DI
	MOVQ div+56(FP), R8
	MOVQ gv1+64(FP), R9
	MOVQ gv2+72(FP), R10

	// gv1 = metdet·(dinv0·u + dinv1·v), gv2 = metdet·(dinv2·u + dinv3·v).
	XORQ DX, DX

divFlux:
	FLUX(BX, SI, DI, CX)
	VMULPD  Y8, Y0, Y0
	VMULPD  Y9, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  Y0, Y10, Y0
	VMOVUPD Y0, (R9)(DX*1)
	VMULPD  Y8, Y2, Y2
	VMULPD  Y9, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  Y2, Y10, Y2
	VMOVUPD Y2, (R10)(DX*1)
	NEXTROW(divFlux)

	// div = ((da + db)·fac)·Rrearth / metdet, (da, db) = deriv4(gv1, gv2).
	// u is not read again, so div may alias it.
	PROLOGUE(AX, fac+24(FP), rrearth+32(FP))
	LOAD4(R10, Y4, Y5, Y6, Y7)
	XORQ DX, DX

divDeriv:
	DERIV(R9, AX, Y8, Y9)
	VADDPD Y9, Y8, Y8
	SCALE(Y8, CX, R8)
	NEXTROW(divDeriv)

	VZEROUPPER
	RET

// func vorticity4AVX2(d *slab4, dFlat *metric4, metdet *slab4, fac, rrearth float64, u, v, vort, cov1, cov2 *slab4)
TEXT ·vorticity4AVX2(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), AX
	MOVQ dFlat+8(FP), BX
	MOVQ metdet+16(FP), CX
	MOVQ u+40(FP), SI
	MOVQ v+48(FP), DI
	MOVQ vort+56(FP), R8
	MOVQ cov1+64(FP), R9
	MOVQ cov2+72(FP), R10

	// cov1 = D0·u + D2·v, cov2 = D1·u + D3·v.
	XORQ DX, DX

vortFlux:
	FLUX(BX, SI, DI, CX)
	VMULPD  Y8, Y0, Y0
	VMULPD  Y9, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (R9)(DX*1)
	VMULPD  Y8, Y1, Y1
	VMULPD  Y9, Y3, Y3
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y1, (R10)(DX*1)
	NEXTROW(vortFlux)

	// vort = ((da - db)·fac)·Rrearth / metdet, (da, db) = deriv4(cov2, cov1).
	PROLOGUE(AX, fac+24(FP), rrearth+32(FP))
	LOAD4(R9, Y4, Y5, Y6, Y7)
	XORQ DX, DX

vortDeriv:
	DERIV(R10, AX, Y8, Y9)
	VSUBPD Y9, Y8, Y8
	SCALE(Y8, CX, R8)
	NEXTROW(vortDeriv)

	VZEROUPPER
	RET

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	// The highest standard leaf must reach 7.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1, ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
