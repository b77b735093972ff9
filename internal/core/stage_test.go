package core

import (
	"math"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
)

// fillNaN overwrites every value of st, Phis and tracers included.
func fillNaN(st *dycore.State) {
	for _, f := range st.Fields() {
		for _, e := range f.Data {
			for i := range e {
				e[i] = math.NaN()
			}
		}
	}
}

// TestStageStatesNeedOnlyPhis pins what stepRank copies into its RK
// stage states: only Phis. The RHS writes every U, V, T and DP value of
// its output across the boundary and inner subsets, and no stage reads a
// stage state's tracers, so stage states filled with NaN before the run
// must give the same state hash as fresh ones, on every backend with
// overlap on and off.
func TestStageStatesNeedOnlyPhis(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 1)
	global, err := randomizedGlobal(cfg, 20261020)
	if err != nil {
		t.Fatal(err)
	}
	const steps, ranks = 2, 2
	run := func(b exec.Backend, overlap, poison bool) uint64 {
		job, err := NewParallelJob(cfg, b, overlap, ranks)
		if err != nil {
			t.Fatal(err)
		}
		local := job.Scatter(global)
		if poison {
			for r, st := range local {
				sc := job.stepScratchFor(r, st)
				fillNaN(sc.s1)
				fillNaN(sc.s2)
			}
		}
		if _, err := job.RunChecked(local, steps); err != nil {
			t.Fatalf("%v overlap=%v poisoned=%v: %v", b, overlap, poison, err)
		}
		return StateFNV(job.Gather(local))
	}
	for _, b := range exec.Backends {
		for _, overlap := range []bool{false, true} {
			if fresh, poisoned := run(b, overlap, false), run(b, overlap, true); poisoned != fresh {
				t.Errorf("%v overlap=%v: NaN stage states give hash %016x, fresh ones %016x", b, overlap, poisoned, fresh)
			}
		}
	}
}
