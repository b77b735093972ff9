package dycore

import (
	"fmt"

	"swcam/internal/mesh"
)

// Config selects the dycore discretization, mirroring the CAM-SE
// namelist knobs the paper's experiments vary.
type Config struct {
	Ne    int // elements per cube edge (Table 2 resolutions)
	Np    int // GLL points per element edge (CAM-SE: 4)
	Nlev  int // vertical levels (128 in the paper's dycore runs, 30 in CAM)
	Qsize int // tracer count

	Dt               float64 // dynamics timestep, s
	NuV              float64 // momentum hyperviscosity, m^4/s
	NuS              float64 // scalar hyperviscosity, m^4/s
	HypervisSubcycle int     // hyperviscosity substeps per dynamics step
	RemapFreq        int     // vertical remap every N dynamics steps
	Limiter          bool    // tracer positivity limiter
}

// DefaultConfig returns CAM-SE-like settings for a given resolution:
// timestep scaled with resolution (more conservative than HOMME's
// ne30/300s because this driver does not subcycle gravity waves),
// hyperviscosity from the HOMME resolution scaling.
func DefaultConfig(ne int) Config {
	nu := HypervisCoefficient(ne)
	return Config{
		Ne: ne, Np: 4, Nlev: 30, Qsize: 4,
		Dt:               100 * 30 / float64(ne),
		NuV:              nu,
		NuS:              nu,
		HypervisSubcycle: 1,
		RemapFreq:        2,
		Limiter:          true,
	}
}

// Validate rejects configurations the discretization cannot run.
func (c Config) Validate() error {
	switch {
	case c.Ne < 1:
		return fmt.Errorf("dycore: ne = %d", c.Ne)
	case c.Np < 2:
		return fmt.Errorf("dycore: np = %d", c.Np)
	case c.Nlev < 2:
		return fmt.Errorf("dycore: nlev = %d", c.Nlev)
	case c.Qsize < 0:
		return fmt.Errorf("dycore: qsize = %d", c.Qsize)
	case c.Dt <= 0:
		return fmt.Errorf("dycore: dt = %g", c.Dt)
	case c.RemapFreq < 1:
		return fmt.Errorf("dycore: remap frequency = %d", c.RemapFreq)
	case c.HypervisSubcycle < 0:
		return fmt.Errorf("dycore: hypervis subcycle = %d", c.HypervisSubcycle)
	}
	return nil
}

// Solver is the serial whole-sphere dycore driver: it owns the mesh, the
// vertical coordinate, and per-element scratch, and advances a State
// through the full CAM-SE sequence — RK dynamics (compute_and_apply_rhs),
// hyperviscosity (hypervis_dp1/dp2), tracer advection (euler_step), and
// periodic vertical remap. DSS is applied through the mesh directly; the
// distributed driver in internal/core replaces it with halo exchanges.
type Solver struct {
	Cfg    Config
	Mesh   *mesh.Mesh
	Hybrid *HybridCoord

	ws   *Workspace
	rhs  *RHS
	cor  [][]float64 // per-element Coriolis parameter
	step int

	// Per-element whole-field scratch for stages and Laplacians.
	lapU, lapV, lapT, lapDP [][]float64
	scrU, scrV, scrS        []float64
	colA, colB, colC, colD  []float64
	flxU, flxV, divScr      []float64
	gv1, gv2                []float64
	remapWS                 *RemapWorkspace
	opScr                   []float64 // six slabs of operator scratch (hyperviscosity)

	// The RK stage states and the tracer stage copy.
	s1, s2    *State
	qn, stage [][]float64
}

// NewSolver builds the mesh and scratch for a configuration.
func NewSolver(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(cfg.Ne, cfg.Np)
	s := &Solver{
		Cfg:    cfg,
		Mesh:   m,
		Hybrid: NewHybridCoord(cfg.Nlev),
		ws:     NewWorkspace(cfg.Np, cfg.Nlev),
		rhs:    NewRHS(cfg.Np, cfg.Nlev),
	}
	npsq := cfg.Np * cfg.Np
	n := m.NElems()
	s.cor = make([][]float64, n)
	for ei, e := range m.Elements {
		s.cor[ei] = Coriolis(e)
	}
	allocEl := func() [][]float64 {
		f := make([][]float64, n)
		for i := range f {
			f[i] = make([]float64, cfg.Nlev*npsq)
		}
		return f
	}
	s.lapU, s.lapV, s.lapT, s.lapDP = allocEl(), allocEl(), allocEl(), allocEl()
	s.scrU = make([]float64, npsq)
	s.scrV = make([]float64, npsq)
	s.scrS = make([]float64, npsq)
	s.opScr = make([]float64, 6*npsq)
	s.colA = make([]float64, cfg.Nlev)
	s.colB = make([]float64, cfg.Nlev)
	s.colC = make([]float64, cfg.Nlev)
	s.colD = make([]float64, cfg.Nlev)
	s.flxU = make([]float64, npsq)
	s.flxV = make([]float64, npsq)
	s.divScr = make([]float64, npsq)
	s.gv1 = make([]float64, npsq)
	s.gv2 = make([]float64, npsq)
	s.remapWS = NewRemapWorkspace(cfg.Nlev)
	s.s1, s.s2 = s.NewState(), s.NewState()
	s.qn, s.stage = allocEl(), make([][]float64, n)
	return s, nil
}

// NewState allocates a state matching the solver's dimensions.
func (s *Solver) NewState() *State {
	return NewState(s.Mesh.NElems(), s.Cfg.Np, s.Cfg.Nlev, s.Cfg.Qsize)
}

// dssState applies serial DSS to the dynamics fields of st.
func (s *Solver) dssState(st *State) {
	s.DSSLevelMajor(st.U, st.V, st.T, st.DP)
}

// DSSLevelMajor applies the mesh DSS to level-major per-element fields.
func (s *Solver) DSSLevelMajor(fields ...[][]float64) {
	m := s.Mesh
	npsq := s.Cfg.Np * s.Cfg.Np
	for _, field := range fields {
		nlev := len(field[0]) / npsq
		for _, refs := range m.NodeElems {
			if len(refs) == 1 {
				continue
			}
			for k := 0; k < nlev; k++ {
				avg := 0.0
				for _, r := range refs {
					avg += m.Elements[r.Elem].DSSW[r.Idx] * field[r.Elem][k*npsq+r.Idx]
				}
				for _, r := range refs {
					field[r.Elem][k*npsq+r.Idx] = avg
				}
			}
		}
	}
}

// applyRHS evaluates out = base + dt*RHS(cur) for all elements, then DSS.
func (s *Solver) applyRHS(cur, base, out *State, dt float64) {
	for ei, e := range s.Mesh.Elements {
		ComputeAndApplyRHSElem(e, s.cor[ei], s.Mesh.DerivFlat, s.ws, s.rhs,
			cur.U[ei], cur.V[ei], cur.T[ei], cur.DP[ei], cur.Phis[ei],
			base.U[ei], base.V[ei], base.T[ei], base.DP[ei],
			out.U[ei], out.V[ei], out.T[ei], out.DP[ei], dt)
	}
	s.dssState(out)
}

// DynStep advances the dynamics one SSP-RK2 (Heun) step:
//
//	s1     = u^n + dt f(u^n)
//	s2     = s1  + dt f(s1)
//	u^{n+1} = (u^n + s2)/2
//
// with DSS after every RHS application, exactly the stage structure whose
// three boundary exchanges §7.6 overlaps.
func (s *Solver) DynStep(st *State) {
	dt := s.Cfg.Dt
	s1, s2 := s.s1, s.s2
	s1.CopyPhisFrom(st) // the second stage reads s1's Phis; s2's is never read
	s.applyRHS(st, st, s1, dt)
	s.applyRHS(s1, s1, s2, dt)
	for ei := range st.U {
		SSPRK2Combine(st.U[ei], s2.U[ei], st.U[ei])
		SSPRK2Combine(st.V[ei], s2.V[ei], st.V[ei])
		SSPRK2Combine(st.T[ei], s2.T[ei], st.T[ei])
		SSPRK2Combine(st.DP[ei], s2.DP[ei], st.DP[ei])
	}
}

// HypervisStep applies HypervisSubcycle rounds of fourth-order
// hyperviscosity to the dynamics fields.
func (s *Solver) HypervisStep(st *State) {
	if s.Cfg.HypervisSubcycle == 0 || (s.Cfg.NuV == 0 && s.Cfg.NuS == 0) {
		return
	}
	np, nlev := s.Cfg.Np, s.Cfg.Nlev
	dt := s.Cfg.Dt / float64(s.Cfg.HypervisSubcycle)
	// The strong-form scalar Laplacian does not integrate to exactly zero
	// (the weak form HOMME uses does), so the dp damping leaks a little
	// global mass; restore it with a proportional fixer, CAM-style.
	mass0 := s.TotalMass(st)
	for sub := 0; sub < s.Cfg.HypervisSubcycle; sub++ {
		for ei, e := range s.Mesh.Elements {
			HypervisDP1Elem(e, s.Mesh.DerivFlat, np, nlev,
				st.U[ei], st.V[ei], st.T[ei], st.DP[ei],
				s.lapU[ei], s.lapV[ei], s.lapT[ei], s.lapDP[ei], s.opScr)
		}
		s.DSSLevelMajor(s.lapU, s.lapV, s.lapT, s.lapDP)
		for ei, e := range s.Mesh.Elements {
			HypervisDP2Elem(e, s.Mesh.DerivFlat, np, nlev,
				s.lapU[ei], s.lapV[ei], s.lapT[ei], s.lapDP[ei],
				st.U[ei], st.V[ei], st.T[ei], st.DP[ei],
				dt, s.Cfg.NuV, s.Cfg.NuS, s.scrU, s.scrV, s.scrS, s.opScr)
		}
		s.dssState(st)
	}
	if mass1 := s.TotalMass(st); mass1 > 0 {
		scale := mass0 / mass1
		for ei := range st.DP {
			for i := range st.DP[ei] {
				st.DP[ei][i] *= scale
			}
		}
	}
}

// TracerStep advances all tracers one SSP-RK2 euler_step using the
// state's current velocity, with the positivity limiter if configured.
func (s *Solver) TracerStep(st *State) {
	np, nlev, dt := s.Cfg.Np, s.Cfg.Nlev, s.Cfg.Dt
	npsq := np * np
	qn, stage := s.qn, s.stage
	for q := 0; q < s.Cfg.Qsize; q++ {
		for ei := range qn {
			cur := st.QdpAt(ei, q)
			copy(qn[ei], cur)
			stage[ei] = cur // advance in place; qn keeps the original
		}
		advance := func() {
			for ei, e := range s.Mesh.Elements {
				EulerStepElem(e, s.Mesh.DerivFlat, np, nlev,
					st.U[ei], st.V[ei], stage[ei], stage[ei], dt,
					s.flxU, s.flxV, s.divScr, s.gv1, s.gv2)
			}
			if s.Cfg.Limiter {
				for ei, e := range s.Mesh.Elements {
					for k := 0; k < nlev; k++ {
						LimiterClipAndSum(stage[ei][k*npsq:(k+1)*npsq], e.SphereMP)
					}
				}
			}
			s.DSSLevelMajor(stage)
		}
		advance() // stage 1: q1 = qn + dt f(qn)
		advance() // stage 2: s2 = q1 + dt f(q1)
		for ei := range stage {
			SSPRK2Combine(qn[ei], stage[ei], stage[ei])
		}
	}
	clear(stage) // hold no view of st past the call
}

// RemapStep remaps the whole state back to the reference vertical grid.
func (s *Solver) RemapStep(st *State) {
	for ei := range s.Mesh.Elements {
		RemapStateElem(s.Hybrid, s.Cfg.Np, s.Cfg.Nlev, s.Cfg.Qsize,
			st.U[ei], st.V[ei], st.T[ei], st.DP[ei], st.Qdp[ei],
			s.colA, s.colB, s.colC, s.colD, s.remapWS)
	}
}

// Step advances the full model state by one dynamics timestep in the
// CAM-SE sequence; the remap fires every RemapFreq steps.
func (s *Solver) Step(st *State) {
	s.DynStep(st)
	s.HypervisStep(st)
	if s.Cfg.Qsize > 0 {
		s.TracerStep(st)
	}
	s.step++
	if s.step%s.Cfg.RemapFreq == 0 {
		s.RemapStep(st)
	}
}

// StepCount returns the number of Step calls taken so far.
func (s *Solver) StepCount() int { return s.step }

// SetStep overrides the internal step counter — restart support: the
// vertical-remap cadence (every RemapFreq steps) must survive a
// checkpoint/restore for bit-exact continuation.
func (s *Solver) SetStep(n int) { s.step = n }
