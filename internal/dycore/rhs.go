package dycore

import (
	"math"

	"swcam/internal/mesh"
)

// Workspace holds preallocated per-element scratch for the RHS kernels,
// sized for one element at a time; kernels must not retain it.
type Workspace struct {
	np, nlev int
	pInt     []float64 // interface pressures, (nlev+1) per node (node-major)
	pMid     []float64 // midpoint pressures, level-major slabs
	phi      []float64 // midpoint geopotential
	divDp    []float64 // div(v dp) per level
	cumDiv   []float64 // vertical running sum of divDp
	omegaP   []float64 // omega/p
	ke       []float64
	vort     []float64
	gx, gy   []float64
	gpx, gpy []float64
	tx, ty   []float64
	flxU     []float64
	flxV     []float64
	s1, s2   []float64 // slab scratch for the differential operators
}

// Coriolis returns the Coriolis parameter 2Ω·sin(lat) at each node of
// e. It is a function of the node alone, so the solver and the engines
// compute it once per element when they are built.
func Coriolis(e *mesh.Element) []float64 {
	cor := make([]float64, len(e.Lat))
	for n, lat := range e.Lat {
		cor[n] = 2 * Omega * math.Sin(lat)
	}
	return cor
}

// NewWorkspace allocates scratch for elements with the given dimensions.
func NewWorkspace(np, nlev int) *Workspace {
	npsq := np * np
	return &Workspace{
		np: np, nlev: nlev,
		pInt:   make([]float64, (nlev+1)*npsq),
		pMid:   make([]float64, nlev*npsq),
		phi:    make([]float64, nlev*npsq),
		divDp:  make([]float64, nlev*npsq),
		cumDiv: make([]float64, nlev*npsq),
		omegaP: make([]float64, nlev*npsq),
		ke:     make([]float64, npsq),
		vort:   make([]float64, npsq),
		gx:     make([]float64, npsq),
		gy:     make([]float64, npsq),
		gpx:    make([]float64, npsq),
		gpy:    make([]float64, npsq),
		tx:     make([]float64, npsq),
		ty:     make([]float64, npsq),
		flxU:   make([]float64, npsq),
		flxV:   make([]float64, npsq),
		s1:     make([]float64, npsq),
		s2:     make([]float64, npsq),
	}
}

// PressureScans fills the workspace pInt/pMid arrays from the layer
// thicknesses of one element: the vertical prefix-sum the paper
// parallelizes over the CPE mesh with register communication (§7.4).
// dp is level-major; pInt is stored node-major ((nlev+1) values per node)
// because it is consumed column-wise.
func (w *Workspace) PressureScans(dp []float64) {
	np, nlev := w.np, w.nlev
	npsq := np * np
	for n := 0; n < npsq; n++ {
		p := PTop
		w.pInt[n*(nlev+1)] = p
		for k := 0; k < nlev; k++ {
			d := dp[k*npsq+n]
			w.pMid[k*npsq+n] = p + d/2
			p += d
			w.pInt[n*(nlev+1)+k+1] = p
		}
	}
}

// GeopotentialScan fills phi with midpoint geopotential by hydrostatic
// integration upward from the surface — the second §7.4-style scan:
//
//	phi_int(nlev) = phis
//	phi_int(k)   = phi_int(k+1) + Rd T(k) dp(k) / pMid(k)
//	phi(k)       = phi_int(k+1) + Rd T(k) dp(k) / (2 pMid(k))
func (w *Workspace) GeopotentialScan(tt, dp, phis []float64) {
	np, nlev := w.np, w.nlev
	npsq := np * np
	for n := 0; n < npsq; n++ {
		phiInt := phis[n]
		for k := nlev - 1; k >= 0; k-- {
			dphi := Rd * tt[k*npsq+n] * dp[k*npsq+n] / w.pMid[k*npsq+n]
			w.phi[k*npsq+n] = phiInt + dphi/2
			phiInt += dphi
		}
	}
}

// RHS holds the tendencies produced by ComputeAndApplyRHSElem for one
// element (level-major like the state).
type RHS struct {
	Ut, Vt, Tt, DPt []float64
}

// NewRHS allocates tendency storage for one element.
func NewRHS(np, nlev int) *RHS {
	n := np * np * nlev
	return &RHS{
		Ut:  make([]float64, n),
		Vt:  make([]float64, n),
		Tt:  make([]float64, n),
		DPt: make([]float64, n),
	}
}

// ComputeAndApplyRHSElem evaluates the primitive-equation right-hand side
// for one element and applies it: out = base + dt * RHS(cur). This is
// the element-local body of CAM-SE's compute_and_apply_rhs (Table 1 row
// 1); the caller applies DSS to the out fields afterwards, completing the
// "apply DSS" part of the kernel.
//
// cor is the element's Coriolis parameter (Coriolis). cur and base may
// be the same element slices. All slices are level-major.
func ComputeAndApplyRHSElem(e *mesh.Element, cor, derivFlat []float64, w *Workspace, rhs *RHS,
	curU, curV, curT, curDP, phis []float64,
	baseU, baseV, baseT, baseDP []float64,
	outU, outV, outT, outDP []float64,
	dt float64) {

	np, nlev := w.np, w.nlev
	npsq := np * np

	// Vertical scans: pressure and geopotential.
	w.PressureScans(curDP)
	w.GeopotentialScan(curT, curDP, phis)

	// Per-level horizontal terms; divDp feeds the omega scan below.
	for k := 0; k < nlev; k++ {
		o := k * npsq
		uk, vk := curU[o:o+npsq], curV[o:o+npsq]
		// Mass flux and its divergence.
		for n := 0; n < npsq; n++ {
			w.flxU[n] = uk[n] * curDP[o+n]
			w.flxV[n] = vk[n] * curDP[o+n]
		}
		DivergenceSlab(derivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
			w.flxU, w.flxV, w.divDp[o:o+npsq], w.s1, w.s2)
	}

	// Omega scan: omega(k) = v.grad(p)(k) - [sum_{l<k} divDp(l) + divDp(k)/2].
	// The cumulative sum is the third vertical dependency chain of §7.4.
	for n := 0; n < npsq; n++ {
		run := 0.0
		for k := 0; k < nlev; k++ {
			w.cumDiv[k*npsq+n] = run + w.divDp[k*npsq+n]/2
			run += w.divDp[k*npsq+n]
		}
	}

	for k := 0; k < nlev; k++ {
		o := k * npsq
		uk, vk := curU[o:o+npsq], curV[o:o+npsq]
		tk := curT[o : o+npsq]

		// Kinetic energy + geopotential gradient (vector-invariant form).
		for n := 0; n < npsq; n++ {
			w.ke[n] = (uk[n]*uk[n]+vk[n]*vk[n])/2 + w.phi[o+n]
		}
		GradientSlab(derivFlat, e.DinvFlat, e.DAlpha, np, w.ke, w.gx, w.gy, w.s1, w.s2)
		// Pressure gradient at the level.
		GradientSlab(derivFlat, e.DinvFlat, e.DAlpha, np, w.pMid[o:o+npsq], w.gpx, w.gpy, w.s1, w.s2)
		// Temperature gradient for horizontal advection.
		GradientSlab(derivFlat, e.DinvFlat, e.DAlpha, np, tk, w.tx, w.ty, w.s1, w.s2)
		// Relative vorticity.
		VorticitySlab(derivFlat, e.DFlat, e.Metdet, e.DAlpha, np, uk, vk, w.vort, w.s1, w.s2)

		for n := 0; n < npsq; n++ {
			absv := w.vort[n] + cor[n]
			p := w.pMid[o+n]
			vgradP := uk[n]*w.gpx[n] + vk[n]*w.gpy[n]
			omega := vgradP - w.cumDiv[o+n]
			w.omegaP[o+n] = omega / p

			rhs.Ut[o+n] = absv*vk[n] - w.gx[n] - Rd*tk[n]/p*w.gpx[n]
			rhs.Vt[o+n] = -absv*uk[n] - w.gy[n] - Rd*tk[n]/p*w.gpy[n]
			rhs.Tt[o+n] = -(uk[n]*w.tx[n] + vk[n]*w.ty[n]) + Kappa*tk[n]*w.omegaP[o+n]
			rhs.DPt[o+n] = -w.divDp[o+n]
		}
	}

	// Apply: out = base + dt * tendency.
	for i := 0; i < nlev*npsq; i++ {
		outU[i] = baseU[i] + dt*rhs.Ut[i]
		outV[i] = baseV[i] + dt*rhs.Vt[i]
		outT[i] = baseT[i] + dt*rhs.Tt[i]
		outDP[i] = baseDP[i] + dt*rhs.DPt[i]
	}
}
