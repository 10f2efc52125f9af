#include "textflag.h"

// func kernel4x4AVX(w, t []float64, b *[4]float64, o *[16]float64, slope float64)
//
// Four neurons against the four lanes of a tile. Y0..Y3 hold neuron k's
// four lane sums, started from b[k]; for each column c in ascending order
// the tile's lanes t[4c..4c+3] are multiplied by the broadcast w[kn+c] and
// the product added, a separate VMULPD and VADDPD so each rounds as
// layerRow's scalar multiply and add do (an FMA would round once). n is
// len(t)/4; the caller passes four rows of n weights and a tile of 4n.
//
// Each sum s is stored as s·slope where s < 0 and as s elsewhere: the
// product is always formed, VCMPPD with LT_OQ (0x11) masks the lanes that
// compare below zero (−0 and NaN do not) and VBLENDVPD picks the product
// on those lanes only, so the branch layerRow takes costs no branch here.
TEXT ·kernel4x4AVX(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), R8
	MOVQ t_base+24(FP), SI
	MOVQ t_len+32(FP), CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	MOVQ b+48(FP), AX
	MOVQ o+56(FP), DI
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ DX, DX
	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD      (SI), Y4
	VBROADCASTSD (R8)(DX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R9)(DX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R10)(DX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R11)(DX*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, SI
	INCQ         DX
	CMPQ         DX, CX
	JB           loop

store:
	VBROADCASTSD slope+64(FP), Y9
	VXORPD       Y10, Y10, Y10
	VMULPD       Y9, Y0, Y4
	VCMPPD       $0x11, Y10, Y0, Y5
	VBLENDVPD    Y5, Y4, Y0, Y0
	VMULPD       Y9, Y1, Y6
	VCMPPD       $0x11, Y10, Y1, Y7
	VBLENDVPD    Y7, Y6, Y1, Y1
	VMULPD       Y9, Y2, Y4
	VCMPPD       $0x11, Y10, Y2, Y5
	VBLENDVPD    Y5, Y4, Y2, Y2
	VMULPD       Y9, Y3, Y6
	VCMPPD       $0x11, Y10, Y3, Y7
	VBLENDVPD    Y7, Y6, Y3, Y3
	VMOVUPD      Y0, 0(DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VZEROUPPER
	RET

// func axpyAVX(y, x []float64, a float64)
//
// y[i] += a·x[i] for i below len(y), four lanes a VMULPD then a VADDPD,
// the one to three entries past the last four a VMULSD then a VADDSD:
// each multiply and add rounds on its own, as axpyGo's do (an FMA would
// round once), and each takes its operands in axpyGo's order, x·a then
// (x·a)+y, so a NaN result carries the payload axpyGo's does.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX
	TESTQ        DX, DX
	JZ           tail

quad:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      quad

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
