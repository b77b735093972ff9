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
func HypervisDP1Elem(e *mesh.Element, derivFlat []float64, np, nlev int,
	u, v, tt, dp []float64,
	lapU, lapV, lapT, lapDP []float64) {
	npsq := np * np
	for k := 0; k < nlev; k++ {
		o := k * npsq
		VecLaplaceSphere(e, derivFlat, np, u[o:o+npsq], v[o:o+npsq], lapU[o:o+npsq], lapV[o:o+npsq])
		LaplaceSphere(e, derivFlat, np, tt[o:o+npsq], lapT[o:o+npsq])
		LaplaceSphere(e, derivFlat, np, dp[o:o+npsq], lapDP[o:o+npsq])
	}
}

// HypervisDP2Elem computes the second Laplacian pass on the DSS'd first
// pass and applies the hyperviscous update f -= dt*nu*laplace(lap f) for
// one element. nuV scales the momentum damping, nuS the scalar damping
// (HOMME's nu vs nu_s/nu_p distinction).
func HypervisDP2Elem(e *mesh.Element, derivFlat []float64, np, nlev int,
	lapU, lapV, lapT, lapDP []float64,
	u, v, tt, dp []float64,
	dt, nuV, nuS float64,
	scrU, scrV, scrS []float64) {
	npsq := np * np
	for k := 0; k < nlev; k++ {
		o := k * npsq
		VecLaplaceSphere(e, derivFlat, np, lapU[o:o+npsq], lapV[o:o+npsq], scrU, scrV)
		for n := 0; n < npsq; n++ {
			u[o+n] -= dt * nuV * scrU[n]
			v[o+n] -= dt * nuV * scrV[n]
		}
		LaplaceSphere(e, derivFlat, np, lapT[o:o+npsq], scrS)
		for n := 0; n < npsq; n++ {
			tt[o+n] -= dt * nuS * scrS[n]
		}
		LaplaceSphere(e, derivFlat, np, lapDP[o:o+npsq], scrS)
		for n := 0; n < npsq; n++ {
			dp[o+n] -= dt * nuS * scrS[n]
		}
	}
}

// HypervisCoefficient returns the CAM-SE tensor hyperviscosity
// coefficient for a given resolution: nu ~ 1e15 m^4/s at ne=30, scaling
// as (30/ne)^3.2 (the empirical HOMME resolution scaling).
func HypervisCoefficient(ne int) float64 {
	return 1.0e15 * math.Pow(30.0/float64(ne), 3.2)
}
