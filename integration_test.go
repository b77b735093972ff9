// Cross-module integration tests at the repository root: end-to-end
// scenarios that thread every subsystem together the way a user would —
// the whole-model pipeline, the checkpoint cycle across the distributed
// driver, and the Figure 9 pipeline from vortex to verification.
package swcam_bench

import (
	"bytes"
	"math"
	"testing"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/physics"
	"swcam/internal/tc"
)

// TestEndToEndMoistModel: build, initialize, run, checkpoint, restore,
// continue — the full single-process product loop with moist physics.
func TestEndToEndMoistModel(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 3
	cfg.PhysEvery = 2
	cfg.PhysWorkers = 4
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitBaroclinicWave(m.State)
	m.Solver.AddMountain(m.State, math.Pi, math.Pi/6, 1500, 0.3)
	npsq := m.Solver.Cfg.Np * m.Solver.Cfg.Np
	for ei := range m.State.Qdp {
		qdp := m.State.QdpAt(ei, 0)
		for k := 0; k < cfg.Dycore.Nlev; k++ {
			sig := float64(k+1) / float64(cfg.Dycore.Nlev)
			for n := 0; n < npsq; n++ {
				qdp[k*npsq+n] = 0.015 * sig * sig * m.State.DP[ei][k*npsq+n]
			}
		}
	}

	m.Run(4)
	var buf bytes.Buffer
	if err := core.WriteCheckpoint(&buf, m.State, m.Solver.StepCount()); err != nil {
		t.Fatal(err)
	}
	// Continue the original.
	m.Run(4)
	ref := m.State.Clone()

	// Restore into a fresh model and catch up.
	m2, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, step, err := core.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2.State.CopyFrom(st)
	m2.Solver.SetStep(step)
	m2.Run(4)
	if d := m2.State.MaxAbsDiff(ref); d != 0 {
		t.Errorf("restored run diverged by %g (restart must be bit-exact)", d)
	}
}

// TestEndToEndDistributedAgainstSerial: the three-backend distributed
// driver against the serial solver through full steps with topography
// and tracers — the complete paper pipeline in one assertion.
func TestEndToEndDistributedAgainstSerial(t *testing.T) {
	cfg := dycore.DefaultConfig(4)
	cfg.Nlev = 8
	cfg.Qsize = 2
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	s.AddMountain(ref, 1.0, 0.5, 1000, 0.3)
	s.InitCosineBellTracer(ref, 0, math.Pi/2, 0, 0.6)
	s.InitCosineBellTracer(ref, 1, math.Pi, 0.4, 0.5)
	global := ref.Clone()
	const steps = 3
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}
	for _, b := range exec.Backends {
		job, err := core.NewParallelJob(cfg, b, true, 4)
		if err != nil {
			t.Fatal(err)
		}
		local := job.Scatter(global)
		job.Run(local, steps)
		got := job.Gather(local)
		// Even the bitwise backends differ from serial at ~1e-10: the
		// hyperviscosity mass fixer's Allreduce sums rank partials in
		// tree order, not the serial loop order. Athread additionally
		// regroups the vertical scans.
		tol := 1e-9
		if b == exec.Athread {
			tol = 1e-5 // absolute, on ~1e4-scale dp fields
		}
		if d := got.MaxAbsDiff(ref); d > tol {
			t.Errorf("%v distributed run differs from serial by %g", b, d)
		}
	}
}

// TestEndToEndKatrinaPipeline: vortex -> dynamics -> tracker -> obs
// verification, the Figure 9 chain.
func TestEndToEndKatrinaPipeline(t *testing.T) {
	run, err := tc.RunResolution(8, 8, 8, 4, tc.KatrinaLikeVortex())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Fixes) < 2 {
		t.Fatal("no track produced")
	}
	// Verification machinery against the embedded best track.
	var obs []tc.BestTrackEntry
	for _, f := range run.Fixes {
		obs = append(obs, tc.KatrinaAt(f.Hours))
	}
	meanErr := tc.MeanTrackError(run.Fixes, obs)
	if meanErr <= 0 || meanErr > 5000 {
		t.Errorf("track verification produced implausible mean error %v km", meanErr)
	}
	if kt, _ := tc.KatrinaPeak(); kt != 150 {
		t.Errorf("best-track peak %v kt", kt)
	}
}

// TestEndToEndHeldSuarez: the Figure 4 configuration end to end with
// history output decoded and sanity-checked.
func TestEndToEndHeldSuarez(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 0
	cfg.Physics = physics.HeldSuarezMode
	cfg.PhysEvery = 1
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitRest(m.State, 280)

	var buf bytes.Buffer
	hw, err := core.NewHistoryWriter(&buf,
		core.NewSampler(m.Solver.Mesh, 24, 12), []string{"T", "U", "V"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Run(1)
		if i%5 == 4 {
			if err := core.WriteHistoryFrameForModel(hw, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, frames, err := core.ReadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, v := range frames[1].Data["T"] {
		if v < 150 || v > 350 {
			t.Fatalf("history surface T %v out of range", v)
		}
	}
}
