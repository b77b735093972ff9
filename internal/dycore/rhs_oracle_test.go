package dycore

import (
	"math"
	"math/rand"
	"testing"

	"swcam/internal/mesh"
)

// The element-kernel oracles: verbatim copies of ComputeAndApplyRHSElem
// (with the Workspace and the two vertical scans it ran on),
// EulerStepElem and RemapStateElem as they stood before their loops were
// rewritten so that no bounds check is left inside them. The rewrites
// keep every operand and its order, so the live kernels must reproduce
// these bit for bit.

type oracleWorkspace struct {
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

func newOracleWorkspace(np, nlev int) *oracleWorkspace {
	npsq := np * np
	return &oracleWorkspace{
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

func (w *oracleWorkspace) PressureScans(dp []float64) {
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

func (w *oracleWorkspace) GeopotentialScan(tt, dp, phis []float64) {
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

func oracleComputeAndApplyRHSElem(e *mesh.Element, cor, derivFlat []float64, w *oracleWorkspace, rhs *RHS,
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

func oracleEulerStepElem(e *mesh.Element, derivFlat []float64, np, nlev int,
	u, v, in, out []float64, dt float64,
	flxU, flxV, div, gv1, gv2 []float64) {
	npsq := np * np
	for k := 0; k < nlev; k++ {
		o := k * npsq
		for n := 0; n < npsq; n++ {
			flxU[n] = u[o+n] * in[o+n]
			flxV[n] = v[o+n] * in[o+n]
		}
		DivergenceSlab(derivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np, flxU, flxV, div, gv1, gv2)
		for n := 0; n < npsq; n++ {
			out[o+n] = in[o+n] - dt*div[n]
		}
	}
}

// oracleRemapColumns is RemapStateElem as it stood over Prepare and
// Apply, whose own oracle is TestRemapPrepareApplyMatchesOracle.
func oracleRemapColumns(h *HybridCoord, np, nlev, qsize int,
	u, v, tt, dp, qdp []float64,
	colSrc, colVal, colRef, colOut []float64, rw *RemapWorkspace) {
	npsq := np * np
	for n := 0; n < npsq; n++ {
		// Deformed column and its implied surface pressure.
		ps := PTop
		for k := 0; k < nlev; k++ {
			colSrc[k] = dp[k*npsq+n]
			ps += colSrc[k]
		}
		h.ReferenceDP(ps, colRef)
		rw.Prepare(colSrc, colRef)

		remapField := func(f []float64) {
			for k := 0; k < nlev; k++ {
				colVal[k] = f[k*npsq+n]
			}
			rw.Apply(colVal, colOut)
			for k := 0; k < nlev; k++ {
				f[k*npsq+n] = colOut[k]
			}
		}
		remapField(u)
		remapField(v)
		remapField(tt)
		for q := 0; q < qsize; q++ {
			// Tracers advect as mass qdp; remap the mixing ratio
			// q = qdp/dp (a cell average) and rebuild mass on the
			// reference grid.
			base := q * nlev * npsq
			for k := 0; k < nlev; k++ {
				colVal[k] = qdp[base+k*npsq+n] / colSrc[k]
			}
			rw.Apply(colVal, colOut)
			for k := 0; k < nlev; k++ {
				qdp[base+k*npsq+n] = colOut[k] * colRef[k]
			}
		}
		for k := 0; k < nlev; k++ {
			dp[k*npsq+n] = colRef[k]
		}
	}
}

// sameSlice reports the first index at which got and want differ in
// bits (sameBits), or -1.
func sameSlice(got, want []float64) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// perturbedState is a baroclinic-wave state with seeded noise on every
// field, so every branch of the kernels sees values no analytic state
// lines up.
func perturbedState(s *Solver, rng *rand.Rand) *State {
	st := s.NewState()
	s.InitBaroclinicWave(st)
	for ei := range st.U {
		for i := range st.U[ei] {
			st.U[ei][i] += 5 * rng.NormFloat64()
			st.V[ei][i] += 5 * rng.NormFloat64()
			st.T[ei][i] += 2 * rng.NormFloat64()
			st.DP[ei][i] *= 1 + 0.05*rng.NormFloat64()
		}
		for i := range st.Qdp[ei] {
			st.Qdp[ei][i] = st.DP[ei][i%len(st.DP[ei])] * rng.Float64()
		}
		for n := range st.Phis[ei] {
			st.Phis[ei][n] = 2000 * rng.Float64()
		}
	}
	return st
}

// TestRHSElemMatchesOracle holds the rewritten ComputeAndApplyRHSElem,
// EulerStepElem and RemapStateElem to their oracles bit for bit, at
// np = 4 (the fixed-size operators) and np = 3 (the generic loops), on
// seeded random states: the RHS with cur aliased to base as every driver
// calls it, the Euler stage with out aliased to in as the drivers call
// it and with a separate out, and the remap in place.
func TestRHSElemMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, np := range []int{4, 3} {
		for _, nlev := range []int{2, 9, 16} {
			cfg := DefaultConfig(2)
			cfg.Np, cfg.Nlev, cfg.Qsize = np, nlev, 2
			s, err := NewSolver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			npsq, size := np*np, nlev*np*np
			st := perturbedState(s, rng)
			ws, ows := NewWorkspace(np, nlev), newOracleWorkspace(np, nlev)
			rhs, orhs := NewRHS(np, nlev), NewRHS(np, nlev)
			out, want := NewState(1, np, nlev, 0), NewState(1, np, nlev, 0)
			slab := func() []float64 { return make([]float64, npsq) }
			for ei, e := range s.Mesh.Elements {
				cor, d := Coriolis(e), s.Mesh.DerivFlat
				ComputeAndApplyRHSElem(e, cor, d, ws, rhs,
					st.U[ei], st.V[ei], st.T[ei], st.DP[ei], st.Phis[ei],
					st.U[ei], st.V[ei], st.T[ei], st.DP[ei],
					out.U[0], out.V[0], out.T[0], out.DP[0], 37.5)
				oracleComputeAndApplyRHSElem(e, cor, d, ows, orhs,
					st.U[ei], st.V[ei], st.T[ei], st.DP[ei], st.Phis[ei],
					st.U[ei], st.V[ei], st.T[ei], st.DP[ei],
					want.U[0], want.V[0], want.T[0], want.DP[0], 37.5)
				for _, f := range []struct {
					name      string
					got, want []float64
				}{{"outU", out.U[0], want.U[0]}, {"outV", out.V[0], want.V[0]}, {"outT", out.T[0], want.T[0]}, {"outDP", out.DP[0], want.DP[0]},
					{"Ut", rhs.Ut, orhs.Ut}, {"Vt", rhs.Vt, orhs.Vt}, {"Tt", rhs.Tt, orhs.Tt}, {"DPt", rhs.DPt, orhs.DPt}} {
					if i := sameSlice(f.got, f.want); i >= 0 {
						t.Fatalf("np %d nlev %d elem %d: RHS %s[%d] = %v, oracle %v", np, nlev, ei, f.name, i, f.got[i], f.want[i])
					}
				}

				for q := 0; q < cfg.Qsize; q++ {
					in := st.QdpAt(ei, q)
					sep := make([]float64, size)
					EulerStepElem(e, d, np, nlev, st.U[ei], st.V[ei], in, sep, 41, slab(), slab(), slab(), slab(), slab())
					got := append([]float64(nil), in...)
					EulerStepElem(e, d, np, nlev, st.U[ei], st.V[ei], got, got, 41, slab(), slab(), slab(), slab(), slab())
					exp := append([]float64(nil), in...)
					oracleEulerStepElem(e, d, np, nlev, st.U[ei], st.V[ei], exp, exp, 41, slab(), slab(), slab(), slab(), slab())
					if i := sameSlice(got, exp); i >= 0 {
						t.Fatalf("np %d nlev %d elem %d q %d: Euler in place [%d] = %v, oracle %v", np, nlev, ei, q, i, got[i], exp[i])
					}
					if i := sameSlice(sep, exp); i >= 0 {
						t.Fatalf("np %d nlev %d elem %d q %d: Euler out [%d] = %v, oracle %v", np, nlev, ei, q, i, sep[i], exp[i])
					}
				}

				clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
				u, v, tt, dp, qdp := clone(st.U[ei]), clone(st.V[ei]), clone(st.T[ei]), clone(st.DP[ei]), clone(st.Qdp[ei])
				wu, wv, wt, wdp, wq := clone(u), clone(v), clone(tt), clone(dp), clone(qdp)
				col := func() []float64 { return make([]float64, nlev) }
				RemapStateElem(s.Hybrid, np, nlev, cfg.Qsize, u, v, tt, dp, qdp, col(), col(), col(), col(), NewRemapWorkspace(nlev))
				oracleRemapColumns(s.Hybrid, np, nlev, cfg.Qsize, wu, wv, wt, wdp, wq, col(), col(), col(), col(), NewRemapWorkspace(nlev))
				for _, f := range []struct {
					name      string
					got, want []float64
				}{{"U", u, wu}, {"V", v, wv}, {"T", tt, wt}, {"DP", dp, wdp}, {"Qdp", qdp, wq}} {
					if i := sameSlice(f.got, f.want); i >= 0 {
						t.Fatalf("np %d nlev %d elem %d: remap %s[%d] = %v, oracle %v", np, nlev, ei, f.name, i, f.got[i], f.want[i])
					}
				}
			}
			if math.IsNaN(out.T[0][0]) {
				t.Fatalf("np %d nlev %d: the RHS of the last element is NaN; the state is not a test of anything", np, nlev)
			}
		}
	}
}
