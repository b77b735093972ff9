package dycore

import (
	"fmt"
	"math"
	"testing"

	"swcam/internal/mesh"
)

func smallSolver(t *testing.T, ne, nlev, qsize int) *Solver {
	t.Helper()
	cfg := DefaultConfig(ne)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRestStateStaysAtRest(t *testing.T) {
	// An isothermal rest atmosphere with flat topography is a discrete
	// steady state: all horizontal gradients vanish exactly in the GLL
	// basis, so winds stay identically zero through full steps.
	s := smallSolver(t, 2, 8, 1)
	st := s.NewState()
	s.InitRest(st, 280)
	for i := 0; i < 3; i++ {
		s.Step(st)
	}
	if w := s.MaxWind(st); w > 1e-10 {
		t.Errorf("rest state developed wind %g m/s", w)
	}
	// Temperature must remain isothermal.
	for ei := range st.T {
		for _, v := range st.T[ei] {
			if math.Abs(v-280) > 1e-8 {
				t.Fatalf("rest state temperature drifted to %v", v)
			}
		}
	}
}

func TestDynamicsConservesMass(t *testing.T) {
	s := smallSolver(t, 4, 8, 0)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	m0 := s.TotalMass(st)
	for i := 0; i < 5; i++ {
		s.Step(st)
	}
	m1 := s.TotalMass(st)
	if rel := math.Abs(m1-m0) / m0; rel > 1e-7 {
		t.Errorf("dry mass drifted by %g relative", rel)
	}
}

func TestBaroclinicRunStable(t *testing.T) {
	// A few hours of a baroclinic-wave run: winds bounded, dp positive,
	// temperatures physical.
	s := smallSolver(t, 4, 8, 1)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	s.InitCosineBellTracer(st, 0, math.Pi/2, 0, 0.6)
	steps := 8
	for i := 0; i < steps; i++ {
		s.Step(st)
	}
	if w := s.MaxWind(st); w > 200 || math.IsNaN(w) {
		t.Fatalf("wind blew up: %g m/s", w)
	}
	if d := s.MinDP(st); d <= 0 {
		t.Fatalf("layer thickness went non-positive: %g", d)
	}
	for ei := range st.T {
		for _, v := range st.T[ei] {
			if v < 130 || v > 400 || math.IsNaN(v) {
				t.Fatalf("unphysical temperature %v", v)
			}
		}
	}
}

func TestTracerAdvectionConservesMass(t *testing.T) {
	s := smallSolver(t, 4, 6, 1)
	st := s.NewState()
	s.InitSolidBodyRotation(st, 280, 30, 0)
	s.InitCosineBellTracer(st, 0, math.Pi, 0, 0.8)
	q0 := s.TracerMass(st, 0)
	if q0 <= 0 {
		t.Fatal("tracer mass not positive after init")
	}
	for i := 0; i < 6; i++ {
		s.TracerStep(st)
	}
	q1 := s.TracerMass(st, 0)
	if rel := math.Abs(q1-q0) / q0; rel > 1e-6 {
		t.Errorf("tracer mass drifted by %g relative", rel)
	}
}

func TestTracerLimiterKeepsPositivity(t *testing.T) {
	s := smallSolver(t, 4, 6, 1)
	s.Cfg.Limiter = true
	st := s.NewState()
	s.InitSolidBodyRotation(st, 280, 40, math.Pi/4)
	s.InitCosineBellTracer(st, 0, math.Pi/2, 0.3, 0.5)
	for i := 0; i < 10; i++ {
		s.TracerStep(st)
	}
	for ei := range st.U {
		qdp := st.QdpAt(ei, 0)
		for _, v := range qdp {
			if v < -1e-12 {
				t.Fatalf("negative tracer mass %g with limiter on", v)
			}
		}
	}
}

func TestTracerAdvectionMovesBell(t *testing.T) {
	// Under solid-body rotation the bell's centre of mass must move
	// eastward at roughly the advecting speed.
	s := smallSolver(t, 6, 4, 1)
	st := s.NewState()
	const u0 = 50.0
	s.InitSolidBodyRotation(st, 280, u0, 0)
	s.InitCosineBellTracer(st, 0, math.Pi, 0, 0.5)

	centroidLon := func() float64 {
		npsq := s.Cfg.Np * s.Cfg.Np
		var sx, sy, wsum float64
		for ei, e := range s.Mesh.Elements {
			qdp := s.NewState().Qdp // placeholder to silence linters; replaced below
			_ = qdp
			q := st.QdpAt(ei, 0)
			for n := 0; n < npsq; n++ {
				w := 0.0
				for k := 0; k < s.Cfg.Nlev; k++ {
					w += q[k*npsq+n]
				}
				w *= e.SphereMP[n]
				sx += w * math.Cos(e.Lon[n])
				sy += w * math.Sin(e.Lon[n])
				wsum += w
			}
		}
		return math.Atan2(sy, sx)
	}
	lon0 := centroidLon()
	steps := 12
	for i := 0; i < steps; i++ {
		s.TracerStep(st)
	}
	lon1 := centroidLon()
	moved := lon1 - lon0
	for moved < -math.Pi {
		moved += 2 * math.Pi
	}
	want := u0 * s.Cfg.Dt * float64(steps) / Rearth // radians at the equator
	if moved < 0.3*want || moved > 2.0*want {
		t.Errorf("bell moved %g rad, expected ~%g rad eastward", moved, want)
	}
}

func TestHypervisDampsNoise(t *testing.T) {
	// Grid-scale noise in T must lose variance under the hyperviscous
	// update while a smooth large-scale field is nearly untouched.
	s := smallSolver(t, 4, 4, 0)
	st := s.NewState()
	s.InitRest(st, 280)
	npsq := s.Cfg.Np * s.Cfg.Np
	// Checkerboard noise at the GLL-node scale.
	for ei := range st.T {
		for k := 0; k < s.Cfg.Nlev; k++ {
			for n := 0; n < npsq; n++ {
				if (n+k)%2 == 0 {
					st.T[ei][k*npsq+n] += 1.0
				} else {
					st.T[ei][k*npsq+n] -= 1.0
				}
			}
		}
	}
	variance := func() float64 {
		tot := 0.0
		cnt := 0
		for ei := range st.T {
			for _, v := range st.T[ei] {
				d := v - 280
				tot += d * d
				cnt++
			}
		}
		return tot / float64(cnt)
	}
	v0 := variance()
	s.HypervisStep(st)
	v1 := variance()
	if v1 >= v0 {
		t.Errorf("hyperviscosity did not damp noise: %g -> %g", v0, v1)
	}
}

func TestRemapStepRestoresReferenceGrid(t *testing.T) {
	s := smallSolver(t, 2, 8, 1)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	// Perturb dp away from the reference grid but keep columns positive.
	npsq := s.Cfg.Np * s.Cfg.Np
	for ei := range st.DP {
		for k := 0; k < s.Cfg.Nlev; k++ {
			for n := 0; n < npsq; n++ {
				st.DP[ei][k*npsq+n] *= 1 + 0.05*math.Sin(float64(k+n))
			}
		}
	}
	m0 := s.TotalMass(st)
	s.RemapStep(st)
	m1 := s.TotalMass(st)
	if rel := math.Abs(m1-m0) / m0; rel > 1e-10 {
		t.Errorf("remap changed total mass by %g", rel)
	}
	// Every column must now be exactly on the reference grid.
	ref := make([]float64, s.Cfg.Nlev)
	for ei := range st.DP {
		for n := 0; n < npsq; n++ {
			ps := PTop
			for k := 0; k < s.Cfg.Nlev; k++ {
				ps += st.DP[ei][k*npsq+n]
			}
			s.Hybrid.ReferenceDP(ps, ref)
			for k := 0; k < s.Cfg.Nlev; k++ {
				if math.Abs(st.DP[ei][k*npsq+n]-ref[k]) > 1e-8*ref[k] {
					t.Fatalf("column not on reference grid after remap")
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Ne = 0 },
		func(c *Config) { c.Np = 1 },
		func(c *Config) { c.Nlev = 1 },
		func(c *Config) { c.Qsize = -1 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.RemapFreq = 0 },
		func(c *Config) { c.HypervisSubcycle = -1 },
	}
	for i, mod := range bads {
		c := DefaultConfig(4)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStateCloneAndDiff(t *testing.T) {
	s := smallSolver(t, 2, 4, 1)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	cl := st.Clone()
	if d := st.MaxAbsDiff(cl); d != 0 {
		t.Fatalf("clone differs by %g", d)
	}
	cl.U[0][0] += 1.5
	if d := st.MaxAbsDiff(cl); d != 1.5 {
		t.Fatalf("MaxAbsDiff = %g, want 1.5", d)
	}
	st.CopyFrom(cl)
	if d := st.MaxAbsDiff(cl); d != 0 {
		t.Fatalf("CopyFrom left diff %g", d)
	}
}

func TestEnergyBoundedOverRun(t *testing.T) {
	s := smallSolver(t, 4, 8, 0)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	e0 := s.TotalEnergy(st)
	for i := 0; i < 5; i++ {
		s.Step(st)
	}
	e1 := s.TotalEnergy(st)
	if rel := math.Abs(e1-e0) / e0; rel > 1e-3 {
		t.Errorf("total energy drifted by %g relative in 5 steps", rel)
	}
}

// Topography path: a mountain under a resting atmosphere exerts a
// pressure-gradient force through the hydrostatic Phis terms, spinning
// up a circulation concentrated near the mountain. Far away the
// atmosphere stays at rest.
func TestMountainForcesLocalCirculation(t *testing.T) {
	s := smallSolver(t, 4, 8, 0)
	st := s.NewState()
	s.InitRest(st, 280)
	const (
		lonC   = math.Pi
		radius = 0.35
	)
	s.AddMountain(st, lonC, 0, 2000, radius)
	mass0 := s.TotalMass(st)
	for i := 0; i < 3; i++ {
		s.Step(st)
	}
	if rel := math.Abs(s.TotalMass(st)-mass0) / mass0; rel > 1e-7 {
		t.Errorf("mountain run lost mass: %g", rel)
	}
	npsq := s.Cfg.Np * s.Cfg.Np
	var nearMax, farMax float64
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			dLon := math.Abs(e.Lon[n] - lonC)
			if dLon > math.Pi {
				dLon = 2*math.Pi - dLon
			}
			d := math.Hypot(dLon*math.Cos(e.Lat[n]), e.Lat[n])
			for k := 0; k < s.Cfg.Nlev; k++ {
				w := math.Hypot(st.U[ei][k*npsq+n], st.V[ei][k*npsq+n])
				if d < 2*radius && w > nearMax {
					nearMax = w
				}
				if d > 6*radius && w > farMax {
					farMax = w
				}
			}
		}
	}
	if nearMax <= 0.01 {
		t.Errorf("mountain produced no circulation: %g m/s", nearMax)
	}
	if farMax > 0.3*nearMax {
		t.Errorf("response not localized: near %g, far %g m/s", nearMax, farMax)
	}
}

// Nair-Lauritzen reversing deformational flow: the winds deform the
// tracer into filaments through half the period, then exactly reverse,
// so at t=T the continuum solution equals the initial condition. The
// recovered bell measures the transport scheme's diffusion; mass must be
// conserved throughout.
func TestDeformationalFlowReturnsTracer(t *testing.T) {
	s := smallSolver(t, 6, 4, 1)
	st := s.NewState()
	s.InitRest(st, 280)
	s.InitCosineBellTracer(st, 0, math.Pi, math.Pi/6, 0.7)
	ref := st.Clone()
	q0 := s.TracerMass(st, 0)

	const (
		period = 12 * 3600.0
		kAmp   = 30.0
	)
	steps := int(period / s.Cfg.Dt)
	npsq := s.Cfg.Np * s.Cfg.Np
	for i := 0; i < steps; i++ {
		tm := (float64(i) + 0.5) * s.Cfg.Dt // midpoint winds for reversibility
		fac := math.Cos(math.Pi * tm / period)
		for ei, e := range s.Mesh.Elements {
			for n := 0; n < npsq; n++ {
				lon, lat := e.Lon[n], e.Lat[n]
				sl := math.Sin(lon)
				u := kAmp * sl * sl * math.Sin(2*lat) * fac
				v := kAmp * math.Sin(2*lon) * math.Cos(lat) * fac
				for k := 0; k < s.Cfg.Nlev; k++ {
					st.U[ei][k*npsq+n] = u
					st.V[ei][k*npsq+n] = v
				}
			}
		}
		s.TracerStep(st)
	}
	if rel := math.Abs(s.TracerMass(st, 0)-q0) / q0; rel > 1e-6 {
		t.Errorf("deformational flow lost tracer mass: %g", rel)
	}
	// Correlation with the initial bell: diffusion spreads it, but the
	// pattern must come back to roughly the right place.
	var dot, na, nb float64
	for ei := range st.Qdp {
		qa := ref.QdpAt(ei, 0)
		qb := st.QdpAt(ei, 0)
		for k := range qa {
			dot += qa[k] * qb[k]
			na += qa[k] * qa[k]
			nb += qb[k] * qb[k]
		}
	}
	corr := dot / math.Sqrt(na*nb)
	if corr < 0.80 {
		t.Errorf("tracer did not return: correlation %.3f with the initial bell", corr)
	}
}

// A functional touch of the paper's 750-m configuration: run the RHS
// kernel on a real ne4096 element (the full grid has 100M elements; one
// is enough to prove the numerics hold at that scale).
func TestRHSOnUltraHighResElement(t *testing.T) {
	e := mesh.SingleElement(4096, 4, 2, 100, 3000)
	const nlev = 16
	npsq := 16
	ws := NewWorkspace(4, nlev)
	rhs := NewRHS(4, nlev)
	deriv := mesh.DerivativeMatrix(4)
	derivFlat := make([]float64, 16)
	for i := 0; i < 4; i++ {
		copy(derivFlat[i*4:(i+1)*4], deriv[i])
	}
	h := NewHybridCoord(nlev)
	dpRef := make([]float64, nlev)
	h.ReferenceDP(P0, dpRef)
	u := make([]float64, nlev*npsq)
	v := make([]float64, nlev*npsq)
	tt := make([]float64, nlev*npsq)
	dp := make([]float64, nlev*npsq)
	phis := make([]float64, npsq)
	for k := 0; k < nlev; k++ {
		for n := 0; n < npsq; n++ {
			u[k*npsq+n] = 20
			tt[k*npsq+n] = 280
			dp[k*npsq+n] = dpRef[k]
		}
	}
	out := NewState(1, 4, nlev, 0)
	ComputeAndApplyRHSElem(e, Coriolis(e), derivFlat, ws, rhs,
		u, v, tt, dp, phis, u, v, tt, dp,
		out.U[0], out.V[0], out.T[0], out.DP[0], 1)
	for i := range out.T[0] {
		if math.IsNaN(out.T[0][i]) || math.IsNaN(out.U[0][i]) {
			t.Fatal("NaN in 750-m element RHS")
		}
	}
	// Uniform fields on a tiny element: tendencies must be tiny (metric
	// gradients are resolved, not amplified, at extreme resolution).
	for i := range rhs.Tt {
		if math.Abs(rhs.Tt[i]) > 1e-6 {
			t.Fatalf("spurious T tendency %g on uniform 750-m element", rhs.Tt[i])
		}
	}
}

func TestGravityWaveCFLAdvisory(t *testing.T) {
	// Default configurations must sit safely below the stability limit
	// at every paper resolution.
	for _, ne := range []int{4, 30, 120, 256} {
		cfg := DefaultConfig(ne)
		if cfl := cfg.GravityWaveCFL(); cfl > 0.8 {
			t.Errorf("ne=%d: default dt gives gravity-wave CFL %.2f", ne, cfl)
		}
	}
	// The advisory detects the unstable setting that blew up the early
	// vortex experiments (dt = 300*30/ne).
	cfg := DefaultConfig(4)
	cfg.Dt = 300 * 30 / 4.0
	if cfl := cfg.GravityWaveCFL(); cfl < 1 {
		t.Errorf("known-unstable dt reports CFL %.2f < 1", cfl)
	}
}

// TotalEnergy returns the global integral of total energy per unit area:
// (cp*T + KE + phis) dp/g summed over the column.
func (s *Solver) TotalEnergy(st *State) float64 {
	npsq := s.Cfg.Np * s.Cfg.Np
	total := 0.0
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			col := 0.0
			for k := 0; k < s.Cfg.Nlev; k++ {
				i := k*npsq + n
				ke := (st.U[ei][i]*st.U[ei][i] + st.V[ei][i]*st.V[ei][i]) / 2
				col += (Cp*st.T[ei][i] + ke + st.Phis[ei][n]) * st.DP[ei][i] / Gravit
			}
			total += e.SphereMP[n] * col
		}
	}
	return total
}

// InitSolidBodyRotation superimposes a solid-body zonal flow of peak
// speed u0 (m/s at the equator) on a rest atmosphere — the classic
// advection test flow. alpha tilts the rotation axis from the pole
// (alpha=0 gives pure zonal flow).
func (s *Solver) InitSolidBodyRotation(st *State, t0, u0, alpha float64) {
	s.InitRest(st, t0)
	npsq := s.Cfg.Np * s.Cfg.Np
	ca, sa := math.Cos(alpha), math.Sin(alpha)
	for ei, e := range s.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			lon, lat := e.Lon[n], e.Lat[n]
			u := u0 * (math.Cos(lat)*ca + math.Sin(lat)*math.Cos(lon)*sa)
			v := -u0 * math.Sin(lon) * sa
			for k := 0; k < s.Cfg.Nlev; k++ {
				st.U[ei][k*npsq+n] = u
				st.V[ei][k*npsq+n] = v
			}
		}
	}
}

// Validate checks that the coordinate yields strictly positive layer
// thicknesses over a surface-pressure range (monotone interfaces).
func (h *HybridCoord) Validate(psMin, psMax float64) error {
	dp := make([]float64, h.Nlev)
	for _, ps := range []float64{psMin, psMax} {
		h.ReferenceDP(ps, dp)
		for k, d := range dp {
			if d <= 0 {
				return fmt.Errorf("dycore: non-positive layer thickness %g at level %d for ps=%g", d, k, ps)
			}
		}
	}
	return nil
}

// GravityWaveCFL estimates the gravity-wave Courant number of a
// configuration: c * dt / dx_node with c ~ 340 m/s and the smallest GLL
// node spacing of the grid. Values approaching 1 are unstable for the
// non-subcycled RK2 driver; DefaultConfig stays near 0.4.
func (c Config) GravityWaveCFL() float64 {
	// Smallest GLL gap for np=4 is (1 - 1/sqrt 5)/2 of the element
	// half-width; generalize via the first interior node.
	xi, _ := mesh.GLL(c.Np)
	minGap := (xi[1] - xi[0]) / 2 // fraction of half-width
	dxNode := Rearth * (3.14159265358979 / 2) / float64(c.Ne) * minGap
	const cGrav = 340.0
	return cGrav * c.Dt / dxNode
}
