package perf

import (
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mesh"
)

// Table 1 / Figure 5: per-kernel timings of the four execution
// strategies (three lowerings, and the Intel run priced on the MPE) at the paper's dycore benchmark shape (6,144 processes,
// nlev=128, CAM's ~25 advected tracers; 64 elements per process for the
// ne256 grid). The costs come from running the functional simulator on a
// representative element block and scaling the extensive counters to the
// full per-process load — kernel costs are exactly linear in elements —
// then converting through the machine model.

// KernelRow is one Table 1 row: modeled per-process seconds per kernel
// invocation under each strategy.
type KernelRow struct {
	Name  string
	Times map[exec.Backend]float64
	MPE   float64 // the Intel run's cost priced on the management core
}

// Speedup returns the Figure 5 ratio: reference backend time over b's
// time (>1 means b is faster than the reference).
func (r KernelRow) Speedup(reference, b exec.Backend) float64 {
	return r.Times[reference] / r.Times[b]
}

// Table1Config shapes the kernel benchmark.
type Table1Config struct {
	Nlev         int
	Qsize        int
	ElemsPerProc int // per-process elements at the Table 1 scale
	SampleElems  int // elements actually simulated (costs scaled up)
}

// DefaultTable1Config matches the paper's setup: ne256 on 6,144
// processes = 64 elements per process, nlev 128, CAM tracer count.
func DefaultTable1Config() Table1Config {
	return Table1Config{Nlev: 128, Qsize: 25, ElemsPerProc: 64, SampleElems: 8}
}

// scaleCost multiplies the extensive counters by f (element-count
// scaling); launches and LDM peak are intensive.
func scaleCost(c exec.Cost, f int64) exec.Cost {
	c.FlopsScalar *= f
	c.FlopsVector *= f
	c.MaxCPEFlops *= f
	c.MemBytes *= f
	c.DMAOps *= f
	c.RegMsgs *= f
	return c
}

// Table1 runs all six kernels under the three backends, prices the
// Intel run on the MPE too, and returns the modeled per-process times in
// the paper's row order.
func Table1(cfg Table1Config) []KernelRow {
	m := mesh.New(2, 4) // 24 elements; the sample uses the first block
	elems := make([]int, cfg.SampleElems)
	for i := range elems {
		elems[i] = i
	}
	en := exec.NewEngine(m, elems, cfg.Nlev, cfg.Qsize)
	scale := int64(cfg.ElemsPerProc / cfg.SampleElems)

	dcfg := dycore.Config{Ne: 2, Np: 4, Nlev: cfg.Nlev, Qsize: cfg.Qsize,
		Dt: 60, RemapFreq: 2, HypervisSubcycle: 1, NuV: 1e15, NuS: 1e15}
	solver, err := dycore.NewSolver(dcfg)
	if err != nil {
		panic(err)
	}
	full := solver.NewState()
	solver.InitBaroclinicWave(full)
	// Local state over the sample elements.
	mkState := func() *dycore.State {
		st := dycore.NewState(cfg.SampleElems, 4, cfg.Nlev, cfg.Qsize)
		for le, ge := range elems {
			copy(st.U[le], full.U[ge])
			copy(st.V[le], full.V[ge])
			copy(st.T[le], full.T[ge])
			copy(st.DP[le], full.DP[ge])
			copy(st.Qdp[le], full.Qdp[ge])
			copy(st.Phis[le], full.Phis[ge])
		}
		// Tracers need structure for euler/remap to exercise real data.
		for le := range st.Qdp {
			for i := range st.Qdp[le] {
				st.Qdp[le][i] = st.DP[le][i%len(st.DP[le])] * 0.01 * float64(1+i%7)
			}
		}
		return st
	}

	h := dycore.NewHybridCoord(cfg.Nlev)
	npsq := 16
	allocF := func() [][]float64 {
		f := make([][]float64, cfg.SampleElems)
		for i := range f {
			f[i] = make([]float64, cfg.Nlev*npsq)
		}
		return f
	}

	rows := []KernelRow{
		{Name: "compute_and_apply_rhs", Times: map[exec.Backend]float64{}},
		{Name: "euler_step", Times: map[exec.Backend]float64{}},
		{Name: "vertical_remap", Times: map[exec.Backend]float64{}},
		{Name: "hypervis_dp1", Times: map[exec.Backend]float64{}},
		{Name: "hypervis_dp2", Times: map[exec.Backend]float64{}},
		{Name: "biharmonic_dp3d", Times: map[exec.Backend]float64{}},
	}
	for _, b := range exec.Backends {
		var costs [6]exec.Cost
		st := mkState()
		out := st.Clone()
		costs[0] = en.ComputeAndApplyRHS(b, st, st, out, 60)
		costs[1] = en.EulerStep(b, st.Clone(), 60)
		costs[2] = en.VerticalRemap(b, h, st.Clone())
		lu, lv, lt, lp := allocF(), allocF(), allocF(), allocF()
		costs[3] = en.HypervisDP1(b, st, lu, lv, lt, lp)
		costs[4] = en.HypervisDP2(b, lu, lv, lt, lp, st, 60, 1e15, 1e15)
		costs[5] = en.BiharmonicDP3D(b, st.DP, allocF())

		for i, c := range costs {
			c = scaleCost(c, scale)
			rows[i].Times[b] = KernelTime(c)
			if b == exec.Intel {
				rows[i].MPE = MPETime(c)
			}
		}
	}
	return rows
}
