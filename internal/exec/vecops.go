package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// Slab operators for the Athread backend. The derivative operators run
// the one np = 4 body of the dycore slabs — the serial arithmetic itself,
// so they match the serial kernels bit for bit by construction — and
// charge the vector flops the CPE's 4-lane unit retires for it when the
// inner loops are hand-vectorized as in the paper's fine-grained redesign
// (§7.3): one Vec4 operation per GLL row of four nodes. Only np = 4 is
// supported — the Vec4 width is why np=4 maps so well onto the SW26010.

// divergenceSlabVec4 is Operators.Divergence on the CPE; scratch gv1,
// gv2. Charges the pointwise metric pass, then the derivative pass.
func divergenceSlabVec4(c *sw.CPE, op *dycore.Operators, u, v, div, gv1, gv2 []float64) {
	const np = 4
	op.Divergence(u, v, div, gv1, gv2)
	c.CountVecFlops(4 * np * 8)
	c.CountVecFlops(4 * np * (4*np + 4))
}

// gradientSlabVec4 is Operators.Gradient on the CPE; scratch da, db.
func gradientSlabVec4(c *sw.CPE, op *dycore.Operators, s, gx, gy, da, db []float64) {
	const np = 4
	op.Gradient(s, gx, gy, da, db)
	c.CountVecFlops(4 * np * (4*np + 2))
	c.CountVecFlops(4 * np * 8)
}

// vorticitySlabVec4 is Operators.Vorticity on the CPE; scratch cov1, cov2.
func vorticitySlabVec4(c *sw.CPE, op *dycore.Operators, u, v, vort, cov1, cov2 []float64) {
	const np = 4
	op.Vorticity(u, v, vort, cov1, cov2)
	c.CountVecFlops(4 * np * 6)
	c.CountVecFlops(4 * np * (4*np + 4))
}

// laplaceSlabVec4 composes gradient + divergence (scratch s1..s4).
func laplaceSlabVec4(c *sw.CPE, op *dycore.Operators, s, out, s1, s2, s3, s4 []float64) {
	gradientSlabVec4(c, op, s, s1, s2, s3, s4)
	divergenceSlabVec4(c, op, s1, s2, out, s3, s4)
}

// vecLaplaceSlabVec4 is Operators.VecLaplace vectorized (scratch s1..s6).
func vecLaplaceSlabVec4(c *sw.CPE, op *dycore.Operators, u, v, lu, lv, s1, s2, s3, s4, s5, s6 []float64) {
	const np = 4
	div, vort := s1, s2
	divergenceSlabVec4(c, op, u, v, div, s3, s4)
	vorticitySlabVec4(c, op, u, v, vort, s3, s4)
	gradientSlabVec4(c, op, div, lu, lv, s3, s4)
	gradientSlabVec4(c, op, vort, s5, s6, s3, s4)
	for j := 0; j < np; j++ {
		// lu -= -gy(vort); lv -= gx(vort) — matching the scalar slab.
		luv := sw.LoadVec4(lu, 4*j).Sub(sw.LoadVec4(s6, 4*j).Neg())
		lvv := sw.LoadVec4(lv, 4*j).Sub(sw.LoadVec4(s5, 4*j))
		luv.Store(lu, 4*j)
		lvv.Store(lv, 4*j)
	}
	c.CountVecFlops(4 * np * 3)
}
