package core

import (
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/physics"
)

// moistGoldenFNV is the committed StateFNV of the moist trajectory
// below. It was recorded before the column-physics and remap rewrites
// (DESIGN "The column layer") and must never move: every one of them is
// a common-subexpression or loop-fusion change that keeps the bits.
const moistGoldenFNV = 0x7184d4a388a0076b

// TestMoistTrajectoryFNVGolden pins a whole moist trajectory — the
// distributed dycore with tracers and remap plus the full moist suite
// on a 2-worker steal pool — to one committed hash, so any change to a
// scheme's arithmetic, however small, fails here even if every
// property test still holds. ne2, L16, 3 tracers, 2 ranks, 10 steps,
// the benchmark's moisture load and perturbation.
func TestMoistTrajectoryFNVGolden(t *testing.T) {
	cfg := testDycoreCfg(2, 16, 3)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
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
	PerturbInitial(g, 1, 0.01)

	job, err := NewParallelJob(cfg, exec.Intel, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.EnablePhysics(physics.Moist, 1, 302, 30); err != nil {
		t.Fatal(err)
	}
	job.SetPhysWorkers(2)
	local := job.Scatter(g)
	if _, err := job.RunChecked(local, 10); err != nil {
		t.Fatal(err)
	}
	if job.TotalPrecip <= 0 {
		t.Fatal("golden trajectory produced no precipitation — it pins nothing moist")
	}
	if got := StateFNV(job.Gather(local)); got != moistGoldenFNV {
		t.Fatalf("moist trajectory StateFNV %#016x, golden %#016x", got, moistGoldenFNV)
	}
}
