package main

import (
	"math"
	"os"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
	"swcam/internal/perf"
	"swcam/internal/tc"
)

// jsonMain emits the selected tables/figures as one JSON document on
// stdout, through the shared obs encoder (the same one the registry
// dumps use). Section keys mirror the flag names.
func jsonMain(all, attrs bool, table, fig int) {
	out := map[string]any{}
	if all || attrs {
		out["attrs"] = attrsJSON()
	}
	if all || table == 1 {
		out["table1"] = table1JSON()
	}
	if all || table == 2 {
		out["table2"] = table2JSON()
	}
	if all || table == 3 {
		out["table3"] = table3JSON()
	}
	if all || fig == 4 {
		out["fig4"] = fig4JSON()
	}
	if all || fig == 5 {
		out["fig5"] = fig5JSON()
	}
	if all || fig == 6 {
		out["fig6"] = fig6JSON()
	}
	if all || fig == 7 {
		out["fig7"] = fig7JSON()
	}
	if all || fig == 8 {
		out["fig8"] = fig8JSON()
	}
	if all || fig == 9 {
		out["fig9"] = fig9JSON()
	}
	if all || fig == 10 {
		out["fig10"] = fig10JSON()
	}
	if len(out) == 0 {
		os.Exit(2)
	}
	if err := obs.EncodeJSON(os.Stdout, out); err != nil {
		check(err)
	}
}

func attrsJSON() map[string]any {
	full := perf.WeakScaling(650, 155000, 128, 4)
	c30 := perf.DefaultCAMConfig(30)
	c120 := perf.DefaultCAMConfig(120)
	return map[string]any{
		"pflops_full_machine": full.PFlops,
		"sypd_ne120":          c120.SYPD(perf.VersionOpenACC, 28800),
		"sypd_ne30":           c30.SYPD(perf.VersionAthread, 5400),
	}
}

type kernelTimesJSON struct {
	Kernel string             `json:"kernel"`
	Times  map[string]float64 `json:"times_s"` // backend -> modeled seconds
}

func table1JSON() []kernelTimesJSON {
	rows := perf.Table1(perf.DefaultTable1Config())
	out := make([]kernelTimesJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, kernelTimesJSON{Kernel: r.Name, Times: map[string]float64{
			"intel":   r.Times[exec.Intel],
			"mpe":     r.Times[exec.MPE],
			"openacc": r.Times[exec.OpenACC],
			"athread": r.Times[exec.Athread],
		}})
	}
	return out
}

func table2JSON() []map[string]int {
	var out []map[string]int
	for _, ne := range []int{64, 256, 512, 1024, 2048, 4096} {
		out = append(out, map[string]int{"ne": ne, "nlev": 128, "elements": 6 * ne * ne})
	}
	return out
}

func table3JSON() []map[string]any {
	var out []map[string]any
	for _, c := range perf.Table3() {
		rows := make([]map[string]any, 0, len(c.Rows))
		for _, r := range c.Rows {
			rows = append(rows, map[string]any{
				"dycore": r.Name, "nprocs": r.NProcs, "run_time_s": r.RunTime,
			})
		}
		out = append(out, map[string]any{"label": c.Label, "rows": rows})
	}
	return out
}

func fig4JSON() map[string]any {
	cfg := dycore.DefaultConfig(4)
	cfg.Nlev = 8
	cfg.Qsize = 0
	s, err := dycore.NewSolver(cfg)
	check(err)
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	g := ref.Clone()
	const steps = 10
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}
	job, err := core.NewParallelJob(cfg, exec.Athread, true, 4)
	check(err)
	local := job.Scatter(g)
	job.Run(local, steps)
	got := job.Gather(local)
	zmA := s.ZonalMeanT(ref, cfg.Nlev-1, 12)
	zmB := s.ZonalMeanT(got, cfg.Nlev-1, 12)
	maxd := 0.0
	for b := range zmA {
		if d := math.Abs(zmA[b] - zmB[b]); d > maxd {
			maxd = d
		}
	}
	return map[string]any{
		"control_zonal_mean_t": zmA, "test_zonal_mean_t": zmB, "max_diff_k": maxd,
	}
}

func fig5JSON() []map[string]any {
	rows := perf.Table1(perf.DefaultTable1Config())
	var out []map[string]any
	for _, r := range rows {
		out = append(out, map[string]any{
			"kernel":             r.Name,
			"mpe_over_intel":     r.Times[exec.MPE] / r.Times[exec.Intel],
			"openacc_speedup":    r.Speedup(exec.Intel, exec.OpenACC),
			"athread_speedup":    r.Speedup(exec.Intel, exec.Athread),
			"athread_vs_openacc": r.Times[exec.OpenACC] / r.Times[exec.Athread],
		})
	}
	return out
}

func fig6JSON() map[string]any {
	c30 := perf.DefaultCAMConfig(30)
	c120 := perf.DefaultCAMConfig(120)
	var ne30, ne120 []map[string]any
	for _, np := range []int{216, 600, 900, 1350, 5400} {
		ne30 = append(ne30, map[string]any{
			"procs":   np,
			"ori":     c30.SYPD(perf.VersionOri, np),
			"openacc": c30.SYPD(perf.VersionOpenACC, np),
			"athread": c30.SYPD(perf.VersionAthread, np),
		})
	}
	for _, np := range []int{2400, 9600, 14400, 21600, 24000, 28800} {
		ne120 = append(ne120, map[string]any{
			"procs":   np,
			"openacc": c120.SYPD(perf.VersionOpenACC, np),
			"athread": c120.SYPD(perf.VersionAthread, np),
		})
	}
	return map[string]any{"ne30": ne30, "ne120": ne120}
}

func fig7JSON() map[string]any {
	out := map[string]any{}
	for _, tc7 := range []struct {
		ne    int
		procs []int
		base  int
	}{
		{256, []int{4096, 8192, 16384, 32768, 65536, 131072}, 4096},
		{1024, []int{8192, 16384, 32768, 65536, 131072}, 8192},
	} {
		h := perf.DefaultHOMMEConfig(tc7.ne)
		var rows []map[string]any
		for _, np := range tc7.procs {
			rows = append(rows, map[string]any{
				"procs": np, "pflops": h.PFlops(np, true),
				"efficiency": h.Efficiency(np, tc7.base, true),
			})
		}
		out[keyNe(tc7.ne)] = rows
	}
	return out
}

func fig8JSON() []map[string]any {
	var out []map[string]any
	for _, e := range []int{48, 192, 650, 768} {
		for _, np := range []int{512, 2048, 8192, 32768, 131072} {
			w := perf.WeakScaling(e, np, 128, 4)
			out = append(out, map[string]any{
				"elems_per_proc": e, "procs": np, "pflops": w.PFlops,
				"efficiency": perf.WeakEfficiency(e, np, 512, 128, 4),
			})
		}
	}
	return out
}

func fig9JSON() []map[string]any {
	vp := tc.KatrinaLikeVortex()
	var out []map[string]any
	for _, ne := range []int{4, 12} {
		run, err := tc.RunResolution(ne, 8, 24, 12, vp)
		check(err)
		out = append(out, map[string]any{
			"ne": ne, "grid_km": run.GridKM, "initial_kt": run.InitialKt,
			"final_kt": run.FinalKt, "retention": run.FinalKt / run.InitialKt,
		})
	}
	return out
}

func fig10JSON() []map[string]any {
	h := perf.DefaultHOMMEConfig(1024)
	var out []map[string]any
	for np := 4096; np <= 131072; np *= 2 {
		tNo, _ := h.StepTime(np, false)
		tOv, _ := h.StepTime(np, true)
		out = append(out, map[string]any{
			"procs": np, "no_overlap_s": tNo, "overlap_s": tOv,
			"saving": (tNo - tOv) / tNo,
		})
	}
	return out
}

func keyNe(ne int) string {
	if ne == 256 {
		return "ne256"
	}
	return "ne1024"
}
