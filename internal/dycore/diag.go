package dycore

import "math"

// Global diagnostics used by conservation tests and run monitoring.

// TotalMass returns the global integral of surface pressure minus the
// model top — i.e. the total dry-air mass (per unit gravity and radius^2
// scaling; constants drop out of conservation ratios).
func (s *Solver) TotalMass(st *State) float64 {
	npsq := s.Cfg.Np * s.Cfg.Np
	total := 0.0
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			col := 0.0
			for k := 0; k < s.Cfg.Nlev; k++ {
				col += st.DP[ei][k*npsq+n]
			}
			total += e.SphereMP[n] * col
		}
	}
	return total
}

// TracerMass returns the global tracer-q mass integral.
func (s *Solver) TracerMass(st *State, q int) float64 {
	npsq := s.Cfg.Np * s.Cfg.Np
	total := 0.0
	for ei, e := range s.Mesh.Elements {
		qdp := st.QdpAt(ei, q)
		for n := 0; n < npsq; n++ {
			col := 0.0
			for k := 0; k < s.Cfg.Nlev; k++ {
				col += qdp[k*npsq+n]
			}
			total += e.SphereMP[n] * col
		}
	}
	return total
}

// MaxWind returns the largest horizontal wind speed in the state, the
// standard CFL/stability monitor.
func (s *Solver) MaxWind(st *State) float64 {
	max := 0.0
	for ei := range st.U {
		for i := range st.U[ei] {
			w := math.Hypot(st.U[ei][i], st.V[ei][i])
			if w > max {
				max = w
			}
		}
	}
	return max
}

// MinDP returns the smallest layer thickness — negative values mean the
// Lagrangian surfaces have crossed and the remap cadence is too slow.
func (s *Solver) MinDP(st *State) float64 {
	min := math.Inf(1)
	for ei := range st.DP {
		for _, d := range st.DP[ei] {
			if d < min {
				min = d
			}
		}
	}
	return min
}

// ZonalMeanT returns the temperature averaged over longitude bands at
// one model level: nbands latitude bins from south to north pole,
// weighted by quadrature weights — the Figure 4 climatology metric.
func (s *Solver) ZonalMeanT(st *State, level, nbands int) []float64 {
	npsq := s.Cfg.Np * s.Cfg.Np
	sum := make([]float64, nbands)
	wgt := make([]float64, nbands)
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			b := int((e.Lat[n] + math.Pi/2) / math.Pi * float64(nbands))
			if b < 0 {
				b = 0
			}
			if b >= nbands {
				b = nbands - 1
			}
			sum[b] += e.SphereMP[n] * st.T[ei][level*npsq+n]
			wgt[b] += e.SphereMP[n]
		}
	}
	out := make([]float64, nbands)
	for b := range out {
		if wgt[b] > 0 {
			out[b] = sum[b] / wgt[b]
		}
	}
	return out
}
