package dycore

import "swcam/internal/mesh"

// EulerStepElem advances the tracer mass qdp of one element by one
// explicit Euler stage of the flux-form advection equation,
//
//	d(qdp)/dt = -div(v qdp),
//
// the element-local body of CAM-SE's euler_step (Table 1 row 2; the
// driver composes stages into the strong-stability-preserving RK2 of the
// paper's description). All slices are level-major; out may alias in.
// flxU..gv2 are np*np caller scratch, so the kernel never allocates.
func EulerStepElem(e *mesh.Element, derivFlat []float64, np, nlev int,
	u, v, in, out []float64, dt float64,
	flxU, flxV, div, gv1, gv2 []float64) {
	npsq, size := np*np, nlev*np*np
	var op Operators
	op.Set(np, e.DAlpha, derivFlat, e.DinvFlat, e.DFlat, e.Metdet)
	u, v, in, out = u[:size:size], v[:size:size], in[:size:size], out[:size:size]
	flxU, flxV, div = flxU[:npsq], flxV[:npsq], div[:npsq]
	for o := 0; o < size; o += npsq {
		uk, vk, ink, outk := u[o:o+npsq], v[o:o+npsq], in[o:o+npsq], out[o:o+npsq]
		for n, q := range ink {
			flxU[n] = uk[n] * q
			flxV[n] = vk[n] * q
		}
		op.Divergence(flxU, flxV, div, gv1, gv2)
		for n, d := range div {
			outk[n] = ink[n] - dt*d
		}
	}
}

// LimiterClipAndSum enforces tracer positivity on one element while
// conserving its tracer mass: negative nodal values are clipped to zero
// and the created mass is removed proportionally from the positive nodes
// (the optimization-free variant of HOMME's limiter8). Returns the
// clipped mass (diagnostic). qdp is one level slab; w are the element's
// SphereMP quadrature weights.
func LimiterClipAndSum(qdp, w []float64) float64 {
	var clipped, positive float64
	w = w[:len(qdp)]
	for n := range qdp {
		if qdp[n] < 0 {
			clipped += -qdp[n] * w[n]
			qdp[n] = 0
		} else {
			positive += qdp[n] * w[n]
		}
	}
	if clipped == 0 || positive <= 0 {
		return clipped
	}
	scale := (positive - clipped) / positive
	if scale < 0 {
		scale = 0
	}
	for n := range qdp {
		qdp[n] *= scale
	}
	return clipped
}

// SSPRK2Combine completes the Heun / SSP-RK2 update
//
//	q^{n+1} = 1/2 q^n + 1/2 (q1 + dt f(q1))
//
// where stage2 already holds q1 + dt f(q1). out may alias qn or stage2.
func SSPRK2Combine(qn, stage2, out []float64) {
	qn, stage2 = qn[:len(out)], stage2[:len(out)]
	for i := range out {
		out[i] = 0.5*qn[i] + 0.5*stage2[i]
	}
}
