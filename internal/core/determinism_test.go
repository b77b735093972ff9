package core

import (
	"math"
	"math/rand"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
)

// randomizedGlobal builds a seeded, perturbed initial condition: the
// baroclinic wave plus tracers, with every prognostic field nudged by
// reproducible noise so the run exercises arbitrary data rather than
// the idealized profile's symmetries.
func randomizedGlobal(cfg dycore.Config, seed int64) (*dycore.State, error) {
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	s.InitCosineBellTracer(st, 0, math.Pi/2, 0.2, 0.7)
	if cfg.Qsize > 1 {
		s.InitCosineBellTracer(st, 1, math.Pi, -0.3, 0.5)
	}
	rng := rand.New(rand.NewSource(seed))
	for e := range st.U {
		for i := range st.U[e] {
			st.U[e][i] += rng.NormFloat64()
			st.V[e][i] += rng.NormFloat64()
			st.T[e][i] += 0.5 * rng.NormFloat64()
			st.DP[e][i] *= 1 + 0.02*(rng.Float64()-0.5)
		}
		for i := range st.Qdp[e] {
			st.Qdp[e][i] *= 0.5 + rng.Float64() // stays non-negative
		}
	}
	return st, nil
}

// TestRunDeterministicAcrossWorkerCounts is the end-to-end determinism
// differential: a randomized multi-step distributed run (halo
// exchanges, allreduce mass fixer, hyperviscosity, tracers, vertical
// remap) must be bit-identical — state hash AND accumulated Cost/Halo
// counters — for every backend at every intra-rank worker-pool size.
// The workers=1 run is the reference; any scheduling, partial-sum
// ordering, or counter-merge sensitivity in the tiled path shows up as
// a hash or counter mismatch here.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 2)
	const (
		seed   = 20260806
		ranks  = 2
		steps  = 3
		refMsg = "workers=%d: %s diverged from workers=1 reference\n tiled:  %+v\n serial: %+v"
	)
	global, err := randomizedGlobal(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	run := func(b exec.Backend, workers int) (uint64, RunStats) {
		job, err := NewParallelJob(cfg, b, true, ranks)
		if err != nil {
			t.Fatal(err)
		}
		job.SetDynWorkers(workers)
		if got := job.EngineWorkers(); got != workers {
			t.Fatalf("EngineWorkers() = %d after SetDynWorkers(%d)", got, workers)
		}
		local := job.Scatter(global)
		stats := job.Run(local, steps)
		return StateFNV(job.Gather(local)), stats
	}

	for _, b := range []exec.Backend{exec.Intel, exec.MPE, exec.OpenACC, exec.Athread} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			refHash, refStats := run(b, 1)
			if refStats.Cost.Flops() == 0 {
				t.Fatal("reference run accounted no kernel cost")
			}
			if refStats.Halo.WireBytes == 0 {
				t.Fatal("reference run moved no halo bytes")
			}
			for _, workers := range []int{2, 4, 8} {
				gotHash, gotStats := run(b, workers)
				if gotHash != refHash {
					t.Errorf("workers=%d: state hash %016x, want %016x", workers, gotHash, refHash)
				}
				if gotStats.Cost != refStats.Cost {
					t.Errorf(refMsg, workers, "Cost", gotStats.Cost, refStats.Cost)
				}
				if gotStats.Halo != refStats.Halo {
					t.Errorf(refMsg, workers, "Halo stats", gotStats.Halo, refStats.Halo)
				}
				if gotStats.Steps != refStats.Steps {
					t.Errorf("workers=%d: stepped %d, want %d", workers, gotStats.Steps, refStats.Steps)
				}
			}
		})
	}
}
