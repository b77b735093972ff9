// Package swcam_bench times the paper's experiments that run simulator
// work — the Table 1 kernels on all four backends, mesh assembly, the
// Figure 4 and Figure 9 integrations — and the ablations beside them,
// reporting their headline metrics through b.ReportMetric. The paper's
// numbers themselves, and how close the model comes to each, are the
// ledger in internal/perf (printed by `benchtab -all`).
package swcam_bench

import (
	"math"
	"testing"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mesh"
	"swcam/internal/perf"
	"swcam/internal/tc"
)

// BenchmarkTable1Kernels runs the six dycore kernels under all four
// execution strategies on the functional simulator and reports the
// modeled Athread-over-Intel speedup range and the peak Athread gain
// over OpenACC (the Table 1 and Figure 5 payload).
func BenchmarkTable1Kernels(b *testing.B) {
	var rows []perf.KernelRow
	for i := 0; i < b.N; i++ {
		rows = perf.Table1(perf.DefaultTable1Config())
	}
	lo, hi, peak := math.Inf(1), math.Inf(-1), 0.0
	for _, r := range rows {
		s := r.Speedup(exec.Intel, exec.Athread)
		lo, hi = math.Min(lo, s), math.Max(hi, s)
		peak = math.Max(peak, r.Speedup(exec.OpenACC, exec.Athread))
	}
	b.ReportMetric(lo, "athread/intel_min_x")
	b.ReportMetric(hi, "athread/intel_max_x")
	b.ReportMetric(peak, "athread/openacc_peak_x")
}

// BenchmarkTable2Mesh builds the cubed-sphere grid (the Table 2
// configurations, at a laptop-scale ne) and reports elements built.
func BenchmarkTable2Mesh(b *testing.B) {
	var m *mesh.Mesh
	for i := 0; i < b.N; i++ {
		m = mesh.New(16, 4)
	}
	b.ReportMetric(float64(m.NElems()), "elements")
	b.ReportMetric(float64(m.NNodes), "unique_nodes")
}

// BenchmarkFig4Climatology runs the control (serial Intel) and test
// (distributed Athread) integrations and reports the largest zonal-mean
// temperature discrepancy — the Figure 4 "identical climate" metric.
func BenchmarkFig4Climatology(b *testing.B) {
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 8
	cfg.Qsize = 0
	maxd := 0.0
	for i := 0; i < b.N; i++ {
		s, err := dycore.NewSolver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ref := s.NewState()
		s.InitBaroclinicWave(ref)
		g := ref.Clone()
		const steps = 4
		for k := 0; k < steps; k++ {
			s.Step(ref)
		}
		job, err := core.NewParallelJob(cfg, exec.Athread, true, 2)
		if err != nil {
			b.Fatal(err)
		}
		local := job.Scatter(g)
		job.Run(local, steps)
		got := job.Gather(local)
		zmA := s.ZonalMeanT(ref, cfg.Nlev-1, 12)
		zmB := s.ZonalMeanT(got, cfg.Nlev-1, 12)
		maxd = 0
		for k := range zmA {
			if d := math.Abs(zmA[k] - zmB[k]); d > maxd {
				maxd = d
			}
		}
	}
	b.ReportMetric(maxd, "max_zonal_T_diff_K")
}

// BenchmarkFig9Hurricane runs the resolution-sensitivity experiment and
// reports the fine/coarse retention contrast.
func BenchmarkFig9Hurricane(b *testing.B) {
	vp := tc.KatrinaLikeVortex()
	var retC, retF float64
	for i := 0; i < b.N; i++ {
		coarse, err := tc.RunResolution(4, 8, 12, 6, vp)
		if err != nil {
			b.Fatal(err)
		}
		fine, err := tc.RunResolution(8, 8, 12, 6, vp)
		if err != nil {
			b.Fatal(err)
		}
		retC = coarse.FinalKt / coarse.InitialKt
		retF = fine.FinalKt / fine.InitialKt
	}
	b.ReportMetric(retC, "coarse_retention")
	b.ReportMetric(retF, "fine_retention")
}

// BenchmarkDycoreStepSerial measures the real Go cost of one full
// serial dycore step at a laptop-scale grid (useful for tracking the
// functional simulator's own performance).
func BenchmarkDycoreStepSerial(b *testing.B) {
	cfg := dycore.DefaultConfig(4)
	cfg.Nlev = 8
	cfg.Qsize = 2
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(st)
	}
}

// BenchmarkDistributedStepAthread measures one distributed step through
// the whole pipeline (engines + halo + allreduce) on the simulator.
func BenchmarkDistributedStepAthread(b *testing.B) {
	cfg := dycore.DefaultConfig(4)
	cfg.Nlev = 8
	cfg.Qsize = 1
	job, err := core.NewParallelJob(cfg, exec.Athread, true, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, _ := dycore.NewSolver(cfg)
	g := s.NewState()
	s.InitBaroclinicWave(g)
	local := job.Scatter(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Run(local, 1)
	}
}

// BenchmarkRemapTransposeAblation compares the two Athread vertical-
// remap data-movement strategies (§7.5): per-column strided DMA vs the
// in-fabric shuffle/register transposition. Reports the DMA-descriptor
// and register-message counts of each — the design trade the paper's
// transposition machinery exists to win — and each cost record's
// modelled time (perf.KernelTime, in model-µs).
func BenchmarkRemapTransposeAblation(b *testing.B) {
	m := mesh.New(2, 4)
	elems := make([]int, m.NElems())
	for i := range elems {
		elems[i] = i
	}
	const nlev, qsize = 32, 4
	en := exec.NewEngine(m, elems, nlev, qsize)
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	for ei := range st.Qdp {
		for i := range st.Qdp[ei] {
			st.Qdp[ei][i] = 0.01 * st.DP[ei][i%len(st.DP[ei])]
		}
	}
	h := dycore.NewHybridCoord(nlev)
	var strided, transposed exec.Cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strided = en.VerticalRemap(exec.Athread, h, st.Clone())
		transposed = en.VerticalRemapTransposed(h, st.Clone())
	}
	b.ReportMetric(float64(strided.DMAOps), "strided_dma_ops")
	b.ReportMetric(float64(transposed.DMAOps), "transposed_dma_ops")
	b.ReportMetric(float64(transposed.RegMsgs), "transposed_reg_msgs")
	b.ReportMetric(perf.KernelTime(strided)*1e6, "strided_model_us")
	b.ReportMetric(perf.KernelTime(transposed)*1e6, "transposed_model_us")
}
