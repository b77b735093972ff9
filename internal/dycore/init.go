package dycore

import "math"

// Initial conditions. Each initializer fills a State allocated with the
// solver's dimensions.

// InitRest sets an isothermal atmosphere at rest with uniform surface
// pressure and flat topography. The discrete RHS of this state is
// identically zero (gradients of horizontally uniform fields vanish
// exactly in the spectral-element basis), so it is the discrete
// steady-state test.
func (s *Solver) InitRest(st *State, t0 float64) {
	npsq := s.Cfg.Np * s.Cfg.Np
	dpRef := make([]float64, s.Cfg.Nlev)
	s.Hybrid.ReferenceDP(P0, dpRef)
	for ei := range s.Mesh.Elements {
		for k := 0; k < s.Cfg.Nlev; k++ {
			for n := 0; n < npsq; n++ {
				st.T[ei][k*npsq+n] = t0
				st.DP[ei][k*npsq+n] = dpRef[k]
			}
		}
		for i := range st.U[ei] {
			st.U[ei][i] = 0
			st.V[ei][i] = 0
		}
		for i := range st.Qdp[ei] {
			st.Qdp[ei][i] = 0
		}
		for n := range st.Phis[ei] {
			st.Phis[ei][n] = 0
		}
	}
}

// InitCosineBellTracer fills tracer q with a cosine bell of radius r0
// (radians) centred at (lonC, latC), as mixing ratio against the current
// dp — the standard solid-body advection target.
func (s *Solver) InitCosineBellTracer(st *State, q int, lonC, latC, r0 float64) {
	npsq := s.Cfg.Np * s.Cfg.Np
	cLat := math.Cos(latC)
	sLat := math.Sin(latC)
	for ei, e := range s.Mesh.Elements {
		qdp := st.QdpAt(ei, q)
		for n := 0; n < npsq; n++ {
			lon, lat := e.Lon[n], e.Lat[n]
			// Great-circle distance to the bell centre.
			cosd := sLat*math.Sin(lat) + cLat*math.Cos(lat)*math.Cos(lon-lonC)
			d := math.Acos(math.Max(-1, math.Min(1, cosd)))
			mix := 0.0
			if d < r0 {
				mix = 0.5 * (1 + math.Cos(math.Pi*d/r0))
			}
			for k := 0; k < s.Cfg.Nlev; k++ {
				qdp[k*npsq+n] = mix * st.DP[ei][k*npsq+n]
			}
		}
	}
}

// InitBaroclinicWave sets a balanced mid-latitude zonal jet with a small
// localized perturbation — a simplified Jablonowski-Williamson setup that
// develops a baroclinic wave over a few simulated days. It exercises all
// dycore kernels with realistic amplitudes.
func (s *Solver) InitBaroclinicWave(st *State) {
	const (
		u0    = 35.0  // jet peak, m/s
		t0    = 288.0 // surface temperature, K
		lapse = 0.005 // K/m tropospheric lapse rate
		pertU = 1.0   // perturbation amplitude, m/s
		lonP  = math.Pi / 9
		latP  = 2 * math.Pi / 9
		radP  = 0.1 // perturbation radius (radians of great circle)
	)
	npsq := s.Cfg.Np * s.Cfg.Np
	nlev := s.Cfg.Nlev
	dpRef := make([]float64, nlev)
	s.Hybrid.ReferenceDP(P0, dpRef)
	pInt := make([]float64, nlev+1)
	s.Hybrid.InterfacePressure(P0, pInt)

	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			lon, lat := e.Lon[n], e.Lat[n]
			// Zonal jet peaked at 45 degrees in each hemisphere.
			jet := u0 * math.Sin(2*lat) * math.Sin(2*lat)
			// Gaussian bump perturbation in u.
			cosd := math.Sin(latP)*math.Sin(lat) + math.Cos(latP)*math.Cos(lat)*math.Cos(lon-lonP)
			d := math.Acos(math.Max(-1, math.Min(1, cosd)))
			bump := pertU * math.Exp(-(d/radP)*(d/radP))

			for k := 0; k < nlev; k++ {
				pm := (pInt[k] + pInt[k+1]) / 2
				// Vertical jet structure: strongest near 250 hPa.
				vert := math.Sin(math.Pi * math.Min(1, pm/P0))
				height := -Rd * t0 / Gravit * math.Log(pm/P0) // isothermal estimate
				tk := t0 - lapse*height
				if tk < 200 {
					tk = 200
				}
				// Thermal-wind-consistent meridional T gradient (approximate):
				// dT/dlat ~ -(f a / Rd) * du/dlnp. A modest analytic tilt
				// keeps the jet quasi-balanced; residual imbalance is the
				// wave trigger, as in the JW test.
				tk -= 10 * math.Sin(2*lat) * math.Sin(2*lat) * vert
				st.U[ei][k*npsq+n] = jet*vert + bump*vert
				st.V[ei][k*npsq+n] = 0
				st.T[ei][k*npsq+n] = tk
				st.DP[ei][k*npsq+n] = dpRef[k]
			}
		}
	}
}

// AddMountain superimposes a Gaussian mountain of the given peak height
// (m) and half-width radius (radians of great circle) on the surface
// geopotential. The overlying atmosphere is NOT rebalanced, so the
// topographic pressure-gradient force spins up a local circulation —
// the standard mountain-wave forcing test for the Phis terms of
// compute_and_apply_rhs.
func (s *Solver) AddMountain(st *State, lonC, latC, height, radius float64) {
	npsq := s.Cfg.Np * s.Cfg.Np
	sLat, cLat := math.Sin(latC), math.Cos(latC)
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			cosd := sLat*math.Sin(e.Lat[n]) + cLat*math.Cos(e.Lat[n])*math.Cos(e.Lon[n]-lonC)
			d := math.Acos(math.Max(-1, math.Min(1, cosd)))
			st.Phis[ei][n] += Gravit * height * math.Exp(-(d/radius)*(d/radius))
		}
	}
}
