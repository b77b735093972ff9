package dycore

import (
	"math"

	"swcam/internal/mesh"
)

// Horizontal dissipation kernels (Table 1 rows 4-6). CAM-SE damps the
// smallest resolved scales with fourth-order hyperviscosity, computed as
// two Laplacian applications with a DSS between them:
//
//	hypervis_dp1:     L1 = laplace(f)            (this file, first pass)
//	  <DSS on L1, by the driver>
//	hypervis_dp2:     f -= dt * nu * laplace(L1)  (second pass + update)
//	biharmonic_dp3d:  the same two-pass operator applied to the layer
//	                  thickness dp3d alone.
//
// Momentum uses the sphere-correct vector Laplacian.

// HypervisDP1Elem computes the first Laplacian pass for one element over
// all levels: scalar Laplacians of T and dp, vector Laplacian of (u,v).
// Outputs are element-local and must be DSS'd before the second pass.
// scr is the operator scratch: six np×np slabs (6·np² values).
func HypervisDP1Elem(e *mesh.Element, derivFlat []float64, np, nlev int,
	u, v, tt, dp []float64,
	lapU, lapV, lapT, lapDP []float64, scr []float64) {
	npsq := np * np
	s1, s2, s3, s4, s5, s6 := scratchSlabs(scr, npsq)
	var op Operators
	op.Set(np, e.DAlpha, derivFlat, e.DinvFlat, e.DFlat, e.Metdet)
	for k := 0; k < nlev; k++ {
		o := k * npsq
		op.VecLaplace(u[o:o+npsq], v[o:o+npsq], lapU[o:o+npsq], lapV[o:o+npsq], s1, s2, s3, s4, s5, s6)
		op.Laplace(tt[o:o+npsq], lapT[o:o+npsq], s1, s2, s3, s4)
		op.Laplace(dp[o:o+npsq], lapDP[o:o+npsq], s1, s2, s3, s4)
	}
}

// HypervisDP2Elem computes the second Laplacian pass on the DSS'd first
// pass and applies the hyperviscous update f -= dt*nu*laplace(lap f) for
// one element. nuV scales the momentum damping, nuS the scalar damping
// (HOMME's nu vs nu_s/nu_p distinction). scrU, scrV and scrS are one
// slab each; scr is the operator scratch, six np×np slabs.
func HypervisDP2Elem(e *mesh.Element, derivFlat []float64, np, nlev int,
	lapU, lapV, lapT, lapDP []float64,
	u, v, tt, dp []float64,
	dt, nuV, nuS float64,
	scrU, scrV, scrS, scr []float64) {
	npsq := np * np
	s1, s2, s3, s4, s5, s6 := scratchSlabs(scr, npsq)
	var op Operators
	op.Set(np, e.DAlpha, derivFlat, e.DinvFlat, e.DFlat, e.Metdet)
	for k := 0; k < nlev; k++ {
		o := k * npsq
		op.VecLaplace(lapU[o:o+npsq], lapV[o:o+npsq], scrU, scrV, s1, s2, s3, s4, s5, s6)
		for n := 0; n < npsq; n++ {
			u[o+n] -= dt * nuV * scrU[n]
			v[o+n] -= dt * nuV * scrV[n]
		}
		op.Laplace(lapT[o:o+npsq], scrS, s1, s2, s3, s4)
		for n := 0; n < npsq; n++ {
			tt[o+n] -= dt * nuS * scrS[n]
		}
		op.Laplace(lapDP[o:o+npsq], scrS, s1, s2, s3, s4)
		for n := 0; n < npsq; n++ {
			dp[o+n] -= dt * nuS * scrS[n]
		}
	}
}

// scratchSlabs splits the operator scratch into its six slabs.
func scratchSlabs(scr []float64, npsq int) (s1, s2, s3, s4, s5, s6 []float64) {
	return scr[0:npsq], scr[npsq : 2*npsq], scr[2*npsq : 3*npsq],
		scr[3*npsq : 4*npsq], scr[4*npsq : 5*npsq], scr[5*npsq : 6*npsq]
}

// HypervisCoefficient returns the CAM-SE tensor hyperviscosity
// coefficient for a given resolution: nu ~ 1e15 m^4/s at ne=30, scaling
// as (30/ne)^3.2 (the empirical HOMME resolution scaling).
func HypervisCoefficient(ne int) float64 {
	return 1.0e15 * math.Pow(30.0/float64(ne), 3.2)
}
