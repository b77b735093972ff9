// Kernels: the Table 1 experiment as a library example — run
// compute_and_apply_rhs on one simulated core group under the three
// execution backends, verify they agree, and print the modeled times.
//
// This is the heart of the paper: the same physics, four ways —
// a Xeon core, the bare MPE (the same serial run, priced on the
// management core), the OpenACC refactoring (Algorithm 1:
// per-iteration copyin, scalar code), and the Athread redesign
// (Algorithm 2: LDM-resident tiles, vectorized inner loops,
// register-communication scans).
package main

import (
	"fmt"
	"log"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mesh"
	"swcam/internal/perf"
)

func main() {
	const (
		nlev  = 32 // divisible by the 8 CPE mesh rows
		qsize = 8
	)
	m := mesh.New(2, 4)
	elems := []int{0, 1, 2, 3, 4, 5, 6, 7} // one CPE-column block
	engine := exec.NewEngine(m, elems, nlev, qsize)

	// A realistic state over those elements.
	cfg := dycore.Config{Ne: 2, Np: 4, Nlev: nlev, Qsize: qsize,
		Dt: 60, RemapFreq: 2, HypervisSubcycle: 1, NuV: 1e15, NuS: 1e15}
	solver, err := dycore.NewSolver(cfg)
	if err != nil {
		log.Fatal(err)
	}
	full := solver.NewState()
	solver.InitBaroclinicWave(full)
	local := func() *dycore.State {
		st := dycore.NewState(len(elems), 4, nlev, qsize)
		for le, ge := range elems {
			copy(st.U[le], full.U[ge])
			copy(st.V[le], full.V[ge])
			copy(st.T[le], full.T[ge])
			copy(st.DP[le], full.DP[ge])
			copy(st.Phis[le], full.Phis[ge])
		}
		for le := range st.Qdp {
			for i := range st.Qdp[le] {
				st.Qdp[le][i] = 0.01 * st.DP[le][i%len(st.DP[le])]
			}
		}
		return st
	}

	fmt.Println("compute_and_apply_rhs under the four Table 1 strategies:")
	var ref *dycore.State
	for _, b := range exec.Backends {
		cur := local()
		out := cur.Clone()
		cost := engine.ComputeAndApplyRHS(b, cur, cur, out, 60)
		t := perf.KernelTime(cost)
		diff := 0.0
		if ref == nil {
			ref = out
		} else {
			diff = ref.MaxAbsDiff(out)
		}
		fmt.Printf("  %-8s %8.3f ms   flops %10d (%3.0f%% vector)  DMA %6.2f MB  regmsgs %6d  maxdiff vs Intel %.1e\n",
			b, 1e3*t, cost.Flops(),
			100*float64(cost.FlopsVector)/float64(cost.Flops()+1),
			float64(cost.MemBytes)/1e6, cost.RegMsgs, diff)
		if b == exec.Intel {
			fmt.Printf("  %-8s %8.3f ms   (the Intel run priced on the management core)\n",
				"MPE", 1e3*perf.MPETime(cost))
		}
	}

	fmt.Println("\neuler_step traffic, Algorithm 1 vs Algorithm 2 (the 10% claim):")
	acc := engine.EulerStep(exec.OpenACC, local(), 60)
	ath := engine.EulerStep(exec.Athread, local(), 60)
	fmt.Printf("  OpenACC: %6.2f MB    Athread: %6.2f MB    ratio %.2f\n",
		float64(acc.MemBytes)/1e6, float64(ath.MemBytes)/1e6,
		float64(ath.MemBytes)/float64(acc.MemBytes))
	fmt.Println("  (our miniature euler_step carries only u,v as non-tracer arrays;")
	fmt.Println("   CAM's carries ~10, which is where the paper's 10x lives — see EXPERIMENTS.md)")
}
