package main

import (
	"fmt"
	"runtime"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/physics"
)

// warmupSteps run once per cold build, before the first timed step, so
// lazily built step workspaces and exchange buffers count as set-up.
const warmupSteps = 2

// physics surface and pool, as swprof runs the moist suite.
const (
	physSST, physSSTDelta = 302, 30
	physWorkers           = 2
)

// modelRun is one built model workload: the job (optionally under the
// supervisor), the seeded initial condition, and pre-scattered copies
// of it so a rep restarts without allocating.
type modelRun struct {
	sh      shape
	solver  *dycore.Solver // serial reference and IC builder
	job     *core.ParallelJob
	rj      *core.ResilientJob // nil unless supervised
	ic      *dycore.State
	icLocal []*dycore.State
	local   []*dycore.State
}

// initialState builds the seeded IC: a baroclinic wave, swprof's
// moisture load in tracer 0 when moist physics runs (a dry column
// makes the convection and microphysics branches free), and the seeded
// temperature perturbation.
func initialState(s *dycore.Solver, moist bool, seed int64) *dycore.State {
	g := s.NewState()
	s.InitBaroclinicWave(g)
	if moist {
		addMoisture(s.Cfg, g)
	}
	core.PerturbInitial(g, seed, 0.01)
	return g
}

func addMoisture(cfg dycore.Config, g *dycore.State) {
	npsq := cfg.Np * cfg.Np
	for ei := range g.Qdp {
		qdp := g.QdpAt(ei, 0)
		for k := 0; k < cfg.Nlev; k++ {
			sig := float64(k+1) / float64(cfg.Nlev)
			for n := 0; n < npsq; n++ {
				qdp[k*npsq+n] = 0.014 * sig * sig * g.DP[ei][k*npsq+n]
			}
		}
	}
}

// newJob builds the job a shape describes, without state.
func newJob(sh shape) (*core.ParallelJob, *core.ResilientJob, error) {
	job, err := core.NewParallelJob(sh.cfg, sh.backend, true, sh.ranks)
	if err != nil {
		return nil, nil, err
	}
	job.SetDynWorkers(1)
	if sh.physics {
		if err := job.EnablePhysics(physics.Moist, 1, physSST, physSSTDelta); err != nil {
			return nil, nil, err
		}
		job.SetPhysWorkers(physWorkers)
	}
	if !sh.supervised {
		return job, nil, nil
	}
	job.EnableIntegrity(1)
	rj := core.NewResilientJob(job)
	rj.Mode = core.ModeLadder
	rj.CheckpointEvery = 2
	rj.Generations = 3
	return job, rj, nil
}

// buildModel is one cold build up to the first timed step: mesh,
// partition, plans and engines (NewParallelJob), the IC, the scatter,
// and the warm-up steps.
func buildModel(sh shape, seed int64, tr *tracer) (*modelRun, error) {
	end := tr.begin("setup.job")
	job, rj, err := newJob(sh)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("setup.ic")
	solver, err := dycore.NewSolver(sh.cfg)
	if err != nil {
		end()
		return nil, err
	}
	ic := initialState(solver, sh.physics, seed)
	end()

	end = tr.begin("setup.scatter")
	m := &modelRun{sh: sh, solver: solver, job: job, rj: rj, ic: ic,
		icLocal: job.Scatter(ic), local: job.Scatter(ic)}
	end()

	end = tr.begin("warmup")
	_, err = m.advance(warmupSteps)
	end()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return m, nil
}

// advance steps the job n steps from its current state.
func (m *modelRun) advance(n int) (core.RunStats, error) {
	if m.rj != nil {
		rs, err := m.rj.Run(m.local, n)
		return rs.Run, err
	}
	return m.job.RunChecked(m.local, n)
}

// repSample is what one rep produced.
type repSample struct {
	d     delta
	hash  uint64
	stats core.RunStats
	sup   core.ResilientStats
	err   error
}

// rep is the unit of fixed work: restore the IC into the rank states
// (CopyFrom, no allocation), rewind the step counter, then one timed
// run of steps model steps. Gather and hash happen after the clock
// stops.
func (m *modelRun) rep(steps int, tr *tracer) repSample {
	for r := range m.local {
		m.local[r].CopyFrom(m.icLocal[r])
	}
	m.job.SetStepCount(0)
	m.job.TotalPrecip = 0

	var s repSample
	end := tr.begin("core.run")
	mt := startMeter()
	if m.rj != nil {
		s.sup, s.err = m.rj.Run(m.local, steps)
		s.stats = s.sup.Run
	} else {
		s.stats, s.err = m.job.RunChecked(m.local, steps)
	}
	s.d = mt.stop()
	end()
	if s.err == nil {
		end = tr.begin("core.gather")
		s.hash = core.StateFNV(m.job.Gather(m.local))
		end()
	}
	return s
}

// reference advances a clone of the IC steps steps on the serial
// single-threaded path: dycore.Solver, or core.Model when physics runs.
func (m *modelRun) reference(steps int) (*dycore.State, error) {
	if !m.sh.physics {
		ref := m.ic.Clone()
		m.solver.SetStep(0)
		for i := 0; i < steps; i++ {
			m.solver.Step(ref)
		}
		return ref, nil
	}
	mod, err := core.NewModel(core.Config{
		Dycore: m.sh.cfg, Physics: physics.Moist, PhysEvery: 1,
		SST: physSST, SSTDelta: physSSTDelta,
	})
	if err != nil {
		return nil, err
	}
	mod.State.CopyFrom(m.ic)
	mod.Run(steps)
	return mod.State, nil
}

// coldBuilds runs build n times cold (a collected heap before each),
// discards every build but the last, and returns that one with the wall
// seconds of each. n == 0 returns the zero T.
func coldBuilds[T any](n int, build func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		mt := startMeter()
		b, err := build()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, float64(mt.stop().WallNs)/1e9)
		last = b
	}
	return last, secs, nil
}
