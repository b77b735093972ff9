package dycore

import (
	"math"
	"testing"
)

// swDt returns a gravity-wave-stable step for depth h0 at resolution ne:
// node spacing over wave speed with a safety factor.
func swDt(ne int, h0 float64) float64 {
	dxNode := Rearth * (math.Pi / 2) / float64(ne) * 0.28 // min GLL gap
	c := math.Sqrt(Gravit * h0)
	return 0.5 * dxNode / c
}

func TestWilliamson2StaysSteady(t *testing.T) {
	// Case 2 is an exact steady solution: after a simulated day the
	// height field must match the initial condition to discretization
	// error (HOMME's acceptance threshold at coarse resolution is
	// relative l2 ~ 1e-5..1e-4).
	const (
		u0 = 20.0
		h0 = 8000.0
	)
	s, err := NewSWSolver(6, swDt(6, h0))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitWilliamson2(st, u0, h0)
	ref := st.Clone()

	steps := 40
	for i := 0; i < steps; i++ {
		s.Step(st)
	}
	var num, den float64
	for ei := range st.H {
		for n := range st.H[ei] {
			d := st.H[ei][n] - ref.H[ei][n]
			num += d * d
			den += ref.H[ei][n] * ref.H[ei][n]
		}
	}
	l2 := math.Sqrt(num / den)
	if l2 > 5e-4 {
		t.Errorf("Williamson 2 height drifted: relative l2 = %g", l2)
	}
	// Winds stay close to the geostrophic profile too.
	maxdu := 0.0
	for ei := range st.U {
		for n := range st.U[ei] {
			if d := math.Abs(st.U[ei][n] - ref.U[ei][n]); d > maxdu {
				maxdu = d
			}
		}
	}
	if maxdu > 0.05*u0 {
		t.Errorf("Williamson 2 wind drifted by %g m/s", maxdu)
	}
}

func TestWilliamson2ErrorConvergesWithResolution(t *testing.T) {
	// The continuum tendency of case 2 is exactly zero, so the norm of
	// the discrete RHS measures pure spatial truncation error and must
	// fall fast under refinement (time-integration and hyperviscosity
	// effects excluded by construction).
	tendency := func(ne int) float64 {
		const h0 = 8000.0
		s, err := NewSWSolver(ne, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := s.NewState()
		s.InitWilliamson2(st, 20, h0)
		zero := s.NewState() // base = 0, dt = 1: out = RHS
		out := s.NewState()
		s.applyRHS(st, zero, out, 1)
		var num, den float64
		for ei := range out.H {
			for n := range out.H[ei] {
				num += out.H[ei][n] * out.H[ei][n]
				den += st.H[ei][n] * st.H[ei][n]
			}
		}
		return math.Sqrt(num / den)
	}
	e4, e8 := tendency(4), tendency(8)
	if e8 > e4/4 {
		t.Errorf("case 2 tendency not converging: ne4 %g, ne8 %g", e4, e8)
	}
}

func TestShallowWaterConservesMass(t *testing.T) {
	s, err := NewSWSolver(4, swDt(4, 8000))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitRossbyHaurwitz(st)
	m0 := s.TotalMass(st)
	for i := 0; i < 10; i++ {
		s.Step(st)
	}
	if rel := math.Abs(s.TotalMass(st)-m0) / m0; rel > 1e-11 {
		t.Errorf("shallow-water mass drifted by %g", rel)
	}
}

func TestRossbyHaurwitzStable(t *testing.T) {
	// The RH4 wave is a demanding nonlinear test: the run must stay
	// bounded with near-conserved energy over a simulated day at ne4.
	s, err := NewSWSolver(4, swDt(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitRossbyHaurwitz(st)
	e0 := s.TotalEnergy(st)
	steps := int(86400 / s.Dt / 4) // quarter day keeps the test quick
	for i := 0; i < steps; i++ {
		s.Step(st)
	}
	for ei := range st.H {
		for n := range st.H[ei] {
			if st.H[ei][n] < 1000 || st.H[ei][n] > 20000 || math.IsNaN(st.H[ei][n]) {
				t.Fatalf("RH wave height blew up: %g", st.H[ei][n])
			}
		}
	}
	if rel := math.Abs(s.TotalEnergy(st)-e0) / e0; rel > 0.02 {
		t.Errorf("RH energy drifted by %g relative", rel)
	}
}

func TestRossbyHaurwitzMovesEast(t *testing.T) {
	// The RH4 pattern translates eastward; track the longitude of the
	// height maximum along the equator-ish band.
	s, err := NewSWSolver(6, swDt(6, 10000))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitRossbyHaurwitz(st)
	peakLon := func() float64 {
		best, lon := math.Inf(-1), 0.0
		npsq := s.Mesh.Np * s.Mesh.Np
		for ei, e := range s.Mesh.Elements {
			for n := 0; n < npsq; n++ {
				if math.Abs(e.Lat[n]) < 0.45 && st.H[ei][n] > best {
					best, lon = st.H[ei][n], e.Lon[n]
				}
			}
		}
		return lon
	}
	lon0 := peakLon()
	simTime := 0.0
	for simTime < 6*3600 {
		s.Step(st)
		simTime += s.Dt
	}
	moved := peakLon() - lon0
	for moved < -math.Pi/4 {
		moved += math.Pi / 2 // wavenumber-4 periodicity
	}
	for moved > math.Pi/4 {
		moved -= math.Pi / 2
	}
	// Analytic phase speed: (R(3+R)omega - 2 Omega) / ((1+R)(2+R)),
	// eastward; over 6 h the crest moves a few degrees.
	if moved <= 0 {
		t.Errorf("RH wave moved %g rad (expected eastward)", moved)
	}
}

func TestShallowWaterTopographyBlocksFlow(t *testing.T) {
	// A mountain in an otherwise balanced flow must deflect it: velocity
	// develops where the topographic gradient acts (Williamson case 5
	// flavour).
	const h0 = 5960.0
	s, err := NewSWSolver(4, swDt(4, h0))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitWilliamson2(st, 20, h0)
	// Case 5 mountain: 2000 m cone at (90W, 30N), here Gaussian.
	const lonC, latC = 3 * math.Pi / 2, math.Pi / 6
	npsq := s.Mesh.Np * s.Mesh.Np
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			cosd := math.Sin(latC)*math.Sin(e.Lat[n]) +
				math.Cos(latC)*math.Cos(e.Lat[n])*math.Cos(e.Lon[n]-lonC)
			d := math.Acos(math.Max(-1, math.Min(1, cosd)))
			s.Hs[ei][n] = 2000 * math.Exp(-(d/0.35)*(d/0.35))
			// Keep the free surface where case 2 put it: h + hs = const
			// along the balanced profile means h dips over the mountain.
			st.H[ei][n] -= s.Hs[ei][n]
		}
	}
	ref := st.Clone()
	for i := 0; i < 20; i++ {
		s.Step(st)
	}
	// The flow must have responded (wave train) but remained bounded.
	var maxDv float64
	for ei := range st.V {
		for n := range st.V[ei] {
			if d := math.Abs(st.V[ei][n] - ref.V[ei][n]); d > maxDv {
				maxDv = d
			}
		}
	}
	if maxDv < 0.01 {
		t.Error("mountain produced no meridional response")
	}
	if maxDv > 50 {
		t.Errorf("mountain response blew up: %g m/s", maxDv)
	}
}

func TestRossbyHaurwitzEnstrophyDecays(t *testing.T) {
	// Potential enstrophy is conserved in the continuum; the
	// hyperviscous scheme must dissipate it slowly, never grow it
	// (growth at these scales signals nonlinear instability).
	s, err := NewSWSolver(4, swDt(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitRossbyHaurwitz(st)
	z0 := s.TotalEnstrophy(st)
	if z0 <= 0 {
		t.Fatal("no enstrophy in the RH wave")
	}
	for i := 0; i < 20; i++ {
		s.Step(st)
	}
	z1 := s.TotalEnstrophy(st)
	if z1 > 1.02*z0 {
		t.Errorf("enstrophy grew: %g -> %g", z0, z1)
	}
	if z1 < 0.5*z0 {
		t.Errorf("enstrophy collapsed unphysically fast: %g -> %g", z0, z1)
	}
}

// TotalEnstrophy returns the potential-enstrophy integral
// (zeta + f)^2 / (2 h) — together with mass and energy one of the
// quadratic invariants the shallow-water system conserves in the
// continuum; its drift measures the scheme's nonlinear dissipation.
func (s *SWSolver) TotalEnstrophy(st *SWState) float64 {
	m := s.Mesh
	np := m.Np
	npsq := np * np
	vort := make([]float64, npsq)
	sA := make([]float64, npsq)
	sB := make([]float64, npsq)
	total := 0.0
	for ei, e := range m.Elements {
		VorticitySlab(m.DerivFlat, e.DFlat, e.Metdet, e.DAlpha, np,
			st.U[ei], st.V[ei], vort, sA, sB)
		for n := 0; n < npsq; n++ {
			f := 2 * Omega * math.Sin(e.Lat[n])
			q := vort[n] + f
			if st.H[ei][n] > 0 {
				total += e.SphereMP[n] * q * q / (2 * st.H[ei][n])
			}
		}
	}
	return total
}
