package dycore

import (
	"math"

	"swcam/internal/mesh"
)

// Workspace holds preallocated per-element scratch for the RHS kernels,
// sized for one element at a time; kernels must not retain it.
type Workspace struct {
	np       int
	pMid     []float64 // midpoint pressures, level-major slabs
	phi      []float64 // midpoint geopotential
	run      []float64 // each node's running column value, one scan at a time
	div      []float64 // div(v dp) at the level
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
		np:   np,
		pMid: make([]float64, nlev*npsq),
		phi:  make([]float64, nlev*npsq),
		run:  make([]float64, npsq),
		div:  make([]float64, npsq),
		ke:   make([]float64, npsq),
		vort: make([]float64, npsq),
		gx:   make([]float64, npsq),
		gy:   make([]float64, npsq),
		gpx:  make([]float64, npsq),
		gpy:  make([]float64, npsq),
		tx:   make([]float64, npsq),
		ty:   make([]float64, npsq),
		flxU: make([]float64, npsq),
		flxV: make([]float64, npsq),
		s1:   make([]float64, npsq),
		s2:   make([]float64, npsq),
	}
}

// The element kernels reslice each field to [:size:size] once, so only a
// level's first o:o+npsq reslice is checked and no node loop has a check.

// PressureScans fills the workspace pMid array from the layer
// thicknesses of one element: the vertical prefix-sum the paper
// parallelizes over the CPE mesh with register communication (§7.4).
// It runs level by level, each node's interface pressure in w.run.
func (w *Workspace) PressureScans(dp []float64) {
	npsq, size := w.np*w.np, len(w.pMid)
	dp, pMid, p := dp[:size:size], w.pMid[:size:size], w.run[:npsq]
	for n := range p {
		p[n] = PTop
	}
	for o := 0; o < size; o += npsq {
		dk, mk := dp[o:o+npsq], pMid[o:o+npsq]
		for n, d := range dk {
			mk[n] = p[n] + d/2
			p[n] += d
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
	npsq, size := w.np*w.np, len(w.pMid)
	tt, dp, pMid, phi := tt[:size:size], dp[:size:size], w.pMid[:size:size], w.phi[:size:size]
	phiInt := w.run[:npsq]
	copy(phiInt, phis)
	for o := size - npsq; o >= 0; o -= npsq {
		tk, dk, mk, fk := tt[o:o+npsq], dp[o:o+npsq], pMid[o:o+npsq], phi[o:o+npsq]
		for n, t := range tk {
			dphi := Rd * t * dk[n] / mk[n]
			fk[n] = phiInt[n] + dphi/2
			phiInt[n] += dphi
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

	npsq, size := w.np*w.np, len(w.pMid)
	var op Operators
	op.Set(w.np, e.DAlpha, derivFlat, e.DinvFlat, e.DFlat, e.Metdet)

	// Vertical scans: pressure and geopotential.
	w.PressureScans(curDP)
	w.GeopotentialScan(curT, curDP, phis)

	curU, curV, curT, curDP = curU[:size:size], curV[:size:size], curT[:size:size], curDP[:size:size]
	pMid, phi := w.pMid[:size:size], w.phi[:size:size]
	ut, vt, tt, dpt := rhs.Ut[:size:size], rhs.Vt[:size:size], rhs.Tt[:size:size], rhs.DPt[:size:size]
	baseU, baseV, baseT, baseDP = baseU[:size:size], baseV[:size:size], baseT[:size:size], baseDP[:size:size]
	outU, outV, outT, outDP = outU[:size:size], outV[:size:size], outT[:size:size], outDP[:size:size]
	cor, run, div, ke, vort := cor[:npsq], w.run[:npsq], w.div[:npsq], w.ke[:npsq], w.vort[:npsq]
	gx, gy, gpx, gpy, tx, ty := w.gx[:npsq], w.gy[:npsq], w.gpx[:npsq], w.gpy[:npsq], w.tx[:npsq], w.ty[:npsq]
	flxU, flxV := w.flxU[:npsq], w.flxV[:npsq]
	clear(run)
	for o := 0; o < size; o += npsq {
		uk, vk, tk, dk := curU[o:o+npsq], curV[o:o+npsq], curT[o:o+npsq], curDP[o:o+npsq]

		// Mass flux and its divergence.
		for n, d := range dk {
			flxU[n] = uk[n] * d
			flxV[n] = vk[n] * d
		}
		op.Divergence(flxU, flxV, div, w.s1, w.s2)

		// Kinetic energy + geopotential gradient (vector-invariant form).
		pk, fk := pMid[o:o+npsq], phi[o:o+npsq]
		for n, f := range fk {
			ke[n] = (uk[n]*uk[n]+vk[n]*vk[n])/2 + f
		}
		op.Gradient(ke, gx, gy, w.s1, w.s2)
		// Pressure gradient at the level.
		op.Gradient(pk, gpx, gpy, w.s1, w.s2)
		// Temperature gradient for horizontal advection.
		op.Gradient(tk, tx, ty, w.s1, w.s2)
		// Relative vorticity.
		op.Vorticity(uk, vk, vort, w.s1, w.s2)

		utk, vtk, ttk, dptk := ut[o:o+npsq], vt[o:o+npsq], tt[o:o+npsq], dpt[o:o+npsq]
		bu, bv, bt, bdp := baseU[o:o+npsq], baseV[o:o+npsq], baseT[o:o+npsq], baseDP[o:o+npsq]
		ou, ov, ot, odp := outU[o:o+npsq], outV[o:o+npsq], outT[o:o+npsq], outDP[o:o+npsq]
		for n, c := range cor {
			// Omega scan: omega(k) = v.grad(p)(k) - [sum_{l<k} divDp(l) +
			// divDp(k)/2]. The running sum is the third vertical
			// dependency chain of §7.4.
			cumDiv := run[n] + div[n]/2
			run[n] += div[n]

			absv := vort[n] + c
			p := pk[n]
			vgradP := uk[n]*gpx[n] + vk[n]*gpy[n]
			omega := vgradP - cumDiv
			omegaP := omega / p

			utk[n] = absv*vk[n] - gx[n] - Rd*tk[n]/p*gpx[n]
			vtk[n] = -absv*uk[n] - gy[n] - Rd*tk[n]/p*gpy[n]
			ttk[n] = -(uk[n]*tx[n] + vk[n]*ty[n]) + Kappa*tk[n]*omegaP
			dptk[n] = -div[n]

			// Apply: out = base + dt * tendency.
			ou[n] = bu[n] + dt*utk[n]
			ov[n] = bv[n] + dt*vtk[n]
			ot[n] = bt[n] + dt*ttk[n]
			odp[n] = bdp[n] + dt*dptk[n]
		}
	}
}
