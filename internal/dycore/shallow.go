package dycore

import (
	"fmt"
	"math"

	"swcam/internal/mesh"
)

// Shallow-water mode: the rotating shallow-water equations on the cubed
// sphere, built on the same spectral-element operators, DSS, and
// hyperviscosity as the primitive-equation core. HOMME ships the same
// mode, and the Williamson et al. (1992) test suite on it is the
// standard validation of a spectral-element dycore's operator stack —
// case 2 in particular is an exact steady solution, so any spurious
// tendency is pure numerical error.
//
//	dv/dt = -(f + zeta) k x v - grad(KE + g*(h + hs))
//	dh/dt = -div(v h)
//
// h is the fluid thickness, hs the bottom topography.

// SWState holds the shallow-water prognostic fields, one np*np slab per
// element.
type SWState struct {
	U, V, H [][]float64
}

// NewSWState allocates a zeroed state for nelem elements.
func NewSWState(nelem, npsq int) *SWState {
	alloc := func() [][]float64 {
		f := make([][]float64, nelem)
		for i := range f {
			f[i] = make([]float64, npsq)
		}
		return f
	}
	return &SWState{U: alloc(), V: alloc(), H: alloc()}
}

// Clone returns a deep copy.
func (s *SWState) Clone() *SWState {
	c := NewSWState(len(s.U), len(s.U[0]))
	for i := range s.U {
		copy(c.U[i], s.U[i])
		copy(c.V[i], s.V[i])
		copy(c.H[i], s.H[i])
	}
	return c
}

// SWSolver advances the shallow-water system.
type SWSolver struct {
	Mesh *mesh.Mesh
	Dt   float64
	Nu   float64     // hyperviscosity coefficient, m^4/s (0 disables)
	Hs   [][]float64 // bottom topography (geometric height, m)

	// scratch
	vort, ke, gx, gy []float64
	flxU, flxV, divH []float64
	lapU, lapV, lapH [][]float64
	s1, s2, s3, s4   []float64
	s5, s6           []float64
}

// NewSWSolver builds a solver on an ne-resolution mesh. dt must satisfy
// the gravity-wave CFL for the mean depth used.
func NewSWSolver(ne int, dt float64) (*SWSolver, error) {
	if ne < 1 || dt <= 0 {
		return nil, fmt.Errorf("dycore: bad shallow-water setup ne=%d dt=%g", ne, dt)
	}
	m := mesh.New(ne, 4)
	npsq := m.Np * m.Np
	s := &SWSolver{
		Mesh: m, Dt: dt,
		Nu:   HypervisCoefficient(ne),
		vort: make([]float64, npsq), ke: make([]float64, npsq),
		gx: make([]float64, npsq), gy: make([]float64, npsq),
		flxU: make([]float64, npsq), flxV: make([]float64, npsq),
		divH: make([]float64, npsq),
		s1:   make([]float64, npsq), s2: make([]float64, npsq),
		s3: make([]float64, npsq), s4: make([]float64, npsq),
		s5: make([]float64, npsq), s6: make([]float64, npsq),
	}
	s.Hs = make([][]float64, m.NElems())
	s.lapU = make([][]float64, m.NElems())
	s.lapV = make([][]float64, m.NElems())
	s.lapH = make([][]float64, m.NElems())
	for i := range s.Hs {
		s.Hs[i] = make([]float64, npsq)
		s.lapU[i] = make([]float64, npsq)
		s.lapV[i] = make([]float64, npsq)
		s.lapH[i] = make([]float64, npsq)
	}
	return s, nil
}

// NewState allocates a state for this solver's mesh.
func (s *SWSolver) NewState() *SWState {
	return NewSWState(s.Mesh.NElems(), s.Mesh.Np*s.Mesh.Np)
}

// dss makes the slab fields continuous.
func (s *SWSolver) dss(fields ...[][]float64) {
	for _, f := range fields {
		s.Mesh.DSS(f)
	}
}

// applyRHS computes out = base + dt * RHS(cur), then DSS.
func (s *SWSolver) applyRHS(cur, base, out *SWState, dt float64) {
	m := s.Mesh
	np := m.Np
	npsq := np * np
	for ei, e := range m.Elements {
		u, v, h := cur.U[ei], cur.V[ei], cur.H[ei]
		VorticitySlab(m.DerivFlat, e.DFlat, e.Metdet, e.DAlpha, np, u, v, s.vort, s.s1, s.s2)
		for n := 0; n < npsq; n++ {
			s.ke[n] = (u[n]*u[n]+v[n]*v[n])/2 + Gravit*(h[n]+s.Hs[ei][n])
		}
		GradientSlab(m.DerivFlat, e.DinvFlat, e.DAlpha, np, s.ke, s.gx, s.gy, s.s1, s.s2)
		for n := 0; n < npsq; n++ {
			s.flxU[n] = u[n] * h[n]
			s.flxV[n] = v[n] * h[n]
		}
		DivergenceSlab(m.DerivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np, s.flxU, s.flxV, s.divH, s.s1, s.s2)
		for n := 0; n < npsq; n++ {
			f := 2 * Omega * math.Sin(e.Lat[n])
			absv := s.vort[n] + f
			out.U[ei][n] = base.U[ei][n] + dt*(absv*v[n]-s.gx[n])
			out.V[ei][n] = base.V[ei][n] + dt*(-absv*u[n]-s.gy[n])
			out.H[ei][n] = base.H[ei][n] + dt*(-s.divH[n])
		}
	}
	s.dss(out.U, out.V, out.H)
}

// hypervis applies one fourth-order dissipation pass with the
// proportional mass fixer (the strong-form Laplacian does not integrate
// to exactly zero; see the 3D solver).
func (s *SWSolver) hypervis(st *SWState) {
	if s.Nu == 0 {
		return
	}
	mass0 := s.TotalMass(st)
	m := s.Mesh
	np := m.Np
	npsq := np * np
	for ei, e := range m.Elements {
		VecLaplaceSlab(m.DerivFlat, e.DFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
			st.U[ei], st.V[ei], s.lapU[ei], s.lapV[ei], s.s1, s.s2, s.s3, s.s4, s.s5, s.s6)
		LaplaceSlab(m.DerivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
			st.H[ei], s.lapH[ei], s.s1, s.s2, s.s3, s.s4)
	}
	s.dss(s.lapU, s.lapV, s.lapH)
	for ei, e := range m.Elements {
		VecLaplaceSlab(m.DerivFlat, e.DFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
			s.lapU[ei], s.lapV[ei], s.s5, s.s6, s.s1, s.s2, s.s3, s.s4, s.gx, s.gy)
		for n := 0; n < npsq; n++ {
			st.U[ei][n] -= s.Dt * s.Nu * s.s5[n]
			st.V[ei][n] -= s.Dt * s.Nu * s.s6[n]
		}
		LaplaceSlab(m.DerivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
			s.lapH[ei], s.s1, s.s2, s.s3, s.s4, s.gx)
		for n := 0; n < npsq; n++ {
			st.H[ei][n] -= s.Dt * s.Nu * s.s1[n]
		}
	}
	s.dss(st.U, st.V, st.H)
	if mass1 := s.TotalMass(st); mass1 > 0 {
		scale := mass0 / mass1
		for ei := range st.H {
			for n := range st.H[ei] {
				st.H[ei][n] *= scale
			}
		}
	}
}

// Step advances one SSP-RK2 step with hyperviscosity.
func (s *SWSolver) Step(st *SWState) {
	s1 := st.Clone()
	s.applyRHS(st, st, s1, s.Dt)
	s2 := s1.Clone()
	s.applyRHS(s1, s1, s2, s.Dt)
	for ei := range st.U {
		SSPRK2Combine(st.U[ei], s2.U[ei], st.U[ei])
		SSPRK2Combine(st.V[ei], s2.V[ei], st.V[ei])
		SSPRK2Combine(st.H[ei], s2.H[ei], st.H[ei])
	}
	s.hypervis(st)
}

// TotalMass returns the global integral of h.
func (s *SWSolver) TotalMass(st *SWState) float64 { return s.Mesh.Integrate(st.H) }

// TotalEnergy returns the shallow-water energy integral
// (h*KE + g*h^2/2 + g*h*hs).
func (s *SWSolver) TotalEnergy(st *SWState) float64 {
	m := s.Mesh
	npsq := m.Np * m.Np
	total := 0.0
	for ei, e := range m.Elements {
		for n := 0; n < npsq; n++ {
			h := st.H[ei][n]
			ke := (st.U[ei][n]*st.U[ei][n] + st.V[ei][n]*st.V[ei][n]) / 2
			total += e.SphereMP[n] * (h*ke + Gravit*h*h/2 + Gravit*h*s.Hs[ei][n])
		}
	}
	return total
}

// InitWilliamson2 sets test case 2 of Williamson et al. (1992): steady
// solid-body zonal geostrophic flow,
//
//	u = u0 cos(lat)
//	g h = g h0 - (a*Omega*u0 + u0^2/2) sin^2(lat)
//
// an exact steady solution of the continuous equations — the discrete
// tendency is pure numerical error.
func (s *SWSolver) InitWilliamson2(st *SWState, u0, h0 float64) {
	npsq := s.Mesh.Np * s.Mesh.Np
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			lat := e.Lat[n]
			sl := math.Sin(lat)
			st.U[ei][n] = u0 * math.Cos(lat)
			st.V[ei][n] = 0
			st.H[ei][n] = h0 - (Rearth*Omega*u0+u0*u0/2)*sl*sl/Gravit
		}
	}
}

// InitRossbyHaurwitz sets the wavenumber-4 Rossby-Haurwitz wave of
// Williamson test case 6 — a large-amplitude rotating wave pattern that
// translates eastward while (in the continuum) preserving its shape.
func (s *SWSolver) InitRossbyHaurwitz(st *SWState) {
	const (
		omg = 7.848e-6 // wave angular parameters, 1/s
		kk  = 7.848e-6
		rr  = 4.0 // wavenumber
		h0  = 8000.0
	)
	a := Rearth
	npsq := s.Mesh.Np * s.Mesh.Np
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			lon, lat := e.Lon[n], e.Lat[n]
			cl := math.Cos(lat)
			sl := math.Sin(lat)
			clR := math.Pow(cl, rr)
			st.U[ei][n] = a*omg*cl + a*kk*clR/cl*(rr*sl*sl-cl*cl)*math.Cos(rr*lon)
			st.V[ei][n] = -a * kk * rr * clR / cl * sl * math.Sin(rr*lon)

			// Geopotential from the standard A, B, C integrals.
			c2 := cl * cl
			aTerm := omg/2*(2*Omega+omg)*c2 +
				kk*kk/4*math.Pow(c2, rr)*((rr+1)*c2+(2*rr*rr-rr-2)-2*rr*rr/c2)
			bTerm := 2 * (Omega + omg) * kk / ((rr + 1) * (rr + 2)) * math.Pow(cl, rr) *
				((rr*rr + 2*rr + 2) - (rr+1)*(rr+1)*c2)
			cTerm := kk * kk / 4 * math.Pow(c2, rr) * ((rr+1)*c2 - (rr + 2))
			gh := Gravit*h0 + a*a*(aTerm+bTerm*math.Cos(rr*lon)+cTerm*math.Cos(2*rr*lon))
			st.H[ei][n] = gh / Gravit
		}
	}
}
