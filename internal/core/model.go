// Package core composes the full miniature CAM: the spectral-element
// dycore (internal/dycore), the CAM5-lite physics suite
// (internal/physics), and — for distributed runs — the per-rank
// execution engines (internal/exec) stitched together with the
// boundary-exchange plans (internal/halo) over the message-passing
// runtime (internal/mpirt). This is the layer the paper calls "the
// entire model": dynamics and physics executed in turn each timestep.
package core

import (
	"fmt"

	"swcam/internal/dycore"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

// Config selects the whole-model setup.
type Config struct {
	Dycore  dycore.Config
	Physics physics.SuiteMode
	// PhysEvery applies the physics suite every N dynamics steps
	// (CAM's dtime / dtdyn ratio).
	PhysEvery int
	// SST is the prescribed sea-surface temperature at the equator;
	// the surface cools poleward with cos^2(lat).
	SST      float64
	SSTDelta float64
	// PhysWorkers runs the column-physics loop on a work-stealing pool
	// of N goroutines (CAM parallelizes physics over "chunks" of columns
	// the same way). 0 or 1 means serial; a negative value auto-sizes to
	// the machine (physics.DefaultStealWorkers, downshifted on tiny
	// grids). Results are bit-identical for every value — partials merge
	// in fixed element order.
	PhysWorkers int
}

// physWorkersRequest maps the Config/flag convention (negative = auto,
// 0 or 1 = serial) onto the runner's request convention (<= 0 = auto).
func physWorkersRequest(n int) int {
	switch {
	case n < 0:
		return 0 // auto-size
	case n == 0:
		return 1 // legacy default: serial
	default:
		return n
	}
}

// DefaultConfig returns a runnable whole-model setup at resolution ne.
func DefaultConfig(ne int) Config {
	d := dycore.DefaultConfig(ne)
	return Config{Dycore: d, Physics: physics.Moist, PhysEvery: 6, SST: 302, SSTDelta: 30}
}

// Model is the serial whole-model driver.
type Model struct {
	Cfg    Config
	Solver *dycore.Solver
	Suite  *physics.Suite
	State  *dycore.State

	phys  *physRunner
	steps int
	obs   *obs.Probe // nil = unobserved (see Attach in obs.go)

	// Accumulated diagnostics.
	TotalPrecip float64 // global mean accumulated precipitation, kg/m^2
}

// NewModel builds the model and an empty state.
func NewModel(cfg Config) (*Model, error) {
	if cfg.PhysEvery < 1 {
		return nil, fmt.Errorf("core: PhysEvery = %d", cfg.PhysEvery)
	}
	s, err := dycore.NewSolver(cfg.Dycore)
	if err != nil {
		return nil, err
	}
	var suite *physics.Suite
	switch cfg.Physics {
	case physics.Moist:
		if cfg.Dycore.Qsize < 1 {
			return nil, fmt.Errorf("core: moist physics needs at least 1 tracer (qv)")
		}
		suite = physics.NewMoistSuite()
	case physics.HeldSuarezMode:
		suite = physics.NewHeldSuarezSuite()
	default:
		return nil, fmt.Errorf("core: unknown physics mode %d", cfg.Physics)
	}
	m := &Model{
		Cfg:    cfg,
		Solver: s,
		Suite:  suite,
		State:  s.NewState(),
	}
	m.phys = newPhysRunner(physWorkersRequest(cfg.PhysWorkers), 0, suite, modelColumns(s.Mesh, cfg))
	return m, nil
}

// applyPhysics runs the suite over every column of the state, advancing
// it by dtPhys = PhysEvery dynamics steps of simulated time, on the
// work-stealing element pool. Serial and parallel share one code path
// (a 1-worker pool runs inline), and the per-element partials merge in
// fixed element order, so the state and TotalPrecip are bit-identical
// for every worker count.
func (m *Model) applyPhysics() {
	dt := m.Solver.Cfg.Dt * float64(m.Cfg.PhysEvery)
	precip, area := m.phys.run(m.State, dt)
	if area > 0 {
		m.TotalPrecip += precip / area
	}
}

// Step advances the model one dynamics step, applying physics every
// PhysEvery steps (the CAM dynamics/physics alternation).
func (m *Model) Step() {
	sp := m.obs.T().Begin(0, "core.dynamics", "model")
	m.Solver.Step(m.State)
	sp.End()
	m.steps++
	if m.steps%m.Cfg.PhysEvery == 0 {
		sp = m.obs.T().Begin(0, "core.physics", "model")
		m.applyPhysics()
		sp.End()
	}
}

// Run advances n steps.
func (m *Model) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// SimHours returns the simulated time so far in hours.
func (m *Model) SimHours() float64 { return float64(m.steps) * m.Cfg.Dycore.Dt / 3600 }
