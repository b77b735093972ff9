// Command benchtab regenerates every table and figure of the paper's
// evaluation section from the models and simulators in this repository:
//
//	benchtab -table 1     kernel timings, Intel/MPE/OpenACC/Athread
//	benchtab -table 2     mesh configurations
//	benchtab -table 3     NGGPS comparison vs FV3 and MPAS
//	benchtab -fig 4       climatology backend equivalence
//	benchtab -fig 5       kernel speedups
//	benchtab -fig 6       whole-CAM SYPD (ne30 and ne120)
//	benchtab -fig 7       HOMME strong scaling (ne256, ne1024)
//	benchtab -fig 8       HOMME weak scaling (48/192/650/768 elems/proc)
//	benchtab -fig 9       hurricane resolution sensitivity + track verification
//	benchtab -all         everything, then the ledger of every paper number
//
// -json emits the selected sections as one JSON document instead of
// text. Each section is computed once and both renderings read the same
// values. Paper values come from the ledger in internal/perf, which is
// also what EXPERIMENTS.md's ledger block is rendered from.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
	"swcam/internal/perf"
	"swcam/internal/tc"
)

// kernels is the Table 1 kernel simulation, run at most once per
// invocation: Table 1, Figure 5 and the ledger all read it.
var kernels = sync.OnceValue(func() []perf.KernelRow { return perf.Table1(perf.DefaultTable1Config()) })

var ledger = sync.OnceValue(func() perf.Ledger { return perf.BuildLedger(kernels()) })

func main() {
	attrs := flag.Bool("attrs", false, "print the performance-attributes summary (paper section 2)")
	table := flag.Int("table", 0, "print table N (1, 2 or 3)")
	fig := flag.Int("fig", 0, "print figure N (4-9; 10 = extra overlap ablation)")
	all := flag.Bool("all", false, "print everything")
	jsonOut := flag.Bool("json", false, "emit the selected sections as JSON (shared obs encoder) instead of text")
	flag.Parse()

	// Each section writes its text to w and returns the same values for
	// the JSON document; keys mirror the flag names.
	sections := []struct {
		key string
		on  bool
		run func(w io.Writer) any
	}{
		{"attrs", *all || *attrs, attributes},
		{"table1", *all || *table == 1, table1},
		{"table2", *all || *table == 2, table2},
		{"table3", *all || *table == 3, table3},
		{"fig4", *all || *fig == 4, fig4},
		{"fig5", *all || *fig == 5, fig5},
		{"fig6", *all || *fig == 6, fig6},
		{"fig7", *all || *fig == 7, fig7},
		{"fig8", *all || *fig == 8, fig8},
		{"fig9", *all || *fig == 9, fig9},
		{"fig10", *all || *fig == 10, fig10},
		{"ledger", *all, ledgerTable},
	}
	w := io.Writer(os.Stdout)
	if *jsonOut {
		w = io.Discard
	}
	out := map[string]any{}
	for _, s := range sections {
		if s.on {
			out[s.key] = s.run(w)
		}
	}
	if len(out) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut {
		check(obs.EncodeJSON(os.Stdout, out))
	}
}

func attributes(w io.Writer) any {
	l := ledger()
	full, ne30, ne120 := l.Get("fig8.full.pflops"), l.Get("fig6.ne30.sypd"), l.Get("fig6.ne120.sypd")
	fmt.Fprintln(w, "== Performance attributes (paper section 2, reproduced values) ==")
	rows := [][2]string{
		{"Sustainable performance", fmt.Sprintf("%.2f PFlops using %s cores (paper: %g)",
			full.Measured, fullMachineCores(), full.Paper.Lo)},
		{"SYPD", fmt.Sprintf("%.1f SYPD ne120 / %.1f SYPD ne30 (paper: %g / %g)",
			ne120.Measured, ne30.Measured, ne120.Paper.Lo, ne30.Paper.Lo)},
		{"Refactoring effort", "paper: 754,129 LOC total, 152,336 modified, 57,709 added"},
		{"Category", "time-to-solution, scalability, peak performance"},
		{"Extreme event", "hurricane Katrina lifecycle (see cmd/katrina)"},
		{"Method", "explicit"},
		{"Reported on", "whole application with I/O (checkpointing included)"},
		{"Precision", "double"},
		{"System scale", "full-machine model: 40,960 nodes x 4 CGs x 65 cores"},
		{"Measurement", "simulator counters + calibrated machine model"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
	return map[string]any{
		"pflops_full_machine": full.Measured,
		"sypd_ne120":          ne120.Measured,
		"sypd_ne30":           ne30.Measured,
	}
}

func table1(w io.Writer) any {
	fmt.Fprintln(w, "== Table 1: key dynamics kernels, modeled per-process time (ms) ==")
	fmt.Fprintln(w, "   (paper reports seconds for a longer run at 6,144 processes;")
	fmt.Fprintln(w, "    ratios are the comparable quantity)")
	fmt.Fprintf(w, "%-24s %9s %9s %9s %9s\n", "kernel", "Intel", "MPE", "OpenACC", "Athread")
	var out []map[string]any
	for _, r := range kernels() {
		t := r.Times
		fmt.Fprintf(w, "%-24s %9.3f %9.3f %9.3f %9.3f\n", r.Name,
			1e3*t[exec.Intel], 1e3*t[exec.MPE], 1e3*t[exec.OpenACC], 1e3*t[exec.Athread])
		out = append(out, map[string]any{"kernel": r.Name, "times_s": map[string]float64{
			"intel": t[exec.Intel], "mpe": t[exec.MPE], "openacc": t[exec.OpenACC], "athread": t[exec.Athread],
		}})
	}
	fmt.Fprintln(w)
	return out
}

func table2(w io.Writer) any {
	fmt.Fprintln(w, "== Table 2: mesh configurations ==")
	fmt.Fprintf(w, "%-8s %-14s %-9s %-12s\n", "size", "horizontal", "vertical", "# elements")
	var out []map[string]int
	for _, ne := range []int{64, 256, 512, 1024, 2048, 4096} {
		h := perf.DefaultHOMMEConfig(ne)
		fmt.Fprintf(w, "ne%-6d %4dx%d x6      %-9d %-12d\n", ne, ne, ne, h.Nlev, h.NElems())
		out = append(out, map[string]int{"ne": ne, "nlev": h.Nlev, "elements": h.NElems()})
	}
	fmt.Fprintln(w)
	return out
}

func table3(w io.Writer) any {
	fmt.Fprintln(w, "== Table 3: NGGPS dycore comparison (modeled run time) ==")
	var out []map[string]any
	for _, c := range perf.Table3() {
		fmt.Fprintln(w, c.Label)
		var rows []map[string]any
		for _, r := range c.Rows {
			fmt.Fprintf(w, "  %-10s np=%6d  model %8.3f s   paper %8.3f s\n",
				r.Name, r.NProcs, r.RunTime, ledger().Get(r.ID).Paper.Lo)
			rows = append(rows, map[string]any{"dycore": r.Name, "nprocs": r.NProcs, "run_time_s": r.RunTime})
		}
		out = append(out, map[string]any{"label": c.Label, "rows": rows})
	}
	fmt.Fprintln(w)
	return out
}

func fig4(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 4: climatology equivalence, control (Intel serial) vs")
	fmt.Fprintln(w, "   test (Athread distributed), Held-Suarez-like run at ne4 ==")
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
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "lat band", "control (K)", "test (K)", "diff (K)")
	maxd := 0.0
	for b := range zmA {
		d := math.Abs(zmA[b] - zmB[b])
		maxd = math.Max(maxd, d)
		lat := -90 + (float64(b)+0.5)*15
		fmt.Fprintf(w, "%+7.1f    %12.4f %12.4f %12.2e\n", lat, zmA[b], zmB[b], d)
	}
	fmt.Fprintf(w, "max zonal-mean difference: %.2e K (paper: 'almost identical patterns')\n\n", maxd)
	return map[string]any{"control_zonal_mean_t": zmA, "test_zonal_mean_t": zmB, "max_diff_k": maxd}
}

func fig5(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 5: kernel speedups at the Table 1 workload ==")
	fmt.Fprintf(w, "%-24s %12s %12s %12s\n", "kernel", "MPE/Intel", "ACC vs Intel", "ATH vs Intel")
	l := ledger()
	var out []map[string]any
	var mpe, acc []float64
	for _, r := range kernels() {
		slow := r.Times[exec.MPE] / r.Times[exec.Intel]
		accX, athX := r.Speedup(exec.Intel, exec.OpenACC), r.Speedup(exec.Intel, exec.Athread)
		fmt.Fprintf(w, "%-24s %11.2fx %11.2fx %11.2fx\n", r.Name, slow, accX, athX)
		out = append(out, map[string]any{
			"kernel":             r.Name,
			"mpe_over_intel":     slow,
			"openacc_speedup":    accX,
			"athread_speedup":    athX,
			"athread_vs_openacc": r.Speedup(exec.OpenACC, exec.Athread),
		})
		mpe = append(mpe, l.Get("table1."+r.Name+".mpe").Paper.Lo)
		acc = append(acc, l.Get("table1."+r.Name+".acc").Paper.Lo)
	}
	ath := l.Get("table1.compute_and_apply_rhs.ath").Paper
	fmt.Fprintf(w, "paper: MPE %.1f-%.1fx slower; ACC %.2f-%.2fx; ATH %g-%gx; ATH/ACC up to ~%gx\n",
		slices.Min(mpe), slices.Max(mpe), slices.Min(acc), slices.Max(acc), ath.Lo, ath.Hi,
		l.Get("fig5.ath_over_acc_peak").Paper.Lo)
	fmt.Fprintln(w)
	return out
}

func fig6(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 6: whole-CAM SYPD ==")
	c30, c120 := perf.DefaultCAMConfig(30), perf.DefaultCAMConfig(120)
	var ne30, ne120 []map[string]any
	fmt.Fprintln(w, "ne30 (100 km):")
	fmt.Fprintf(w, "%8s %8s %8s %8s\n", "procs", "ori", "openacc", "athread")
	for _, np := range perf.Fig6Ne30Procs {
		ori, acc, ath := c30.SYPD(perf.VersionOri, np), c30.SYPD(perf.VersionOpenACC, np), c30.SYPD(perf.VersionAthread, np)
		fmt.Fprintf(w, "%8d %8.2f %8.2f %8.2f\n", np, ori, acc, ath)
		ne30 = append(ne30, map[string]any{"procs": np, "ori": ori, "openacc": acc, "athread": ath})
	}
	fmt.Fprintf(w, "paper anchor: %g SYPD athread @5400\n", ledger().Get("fig6.ne30.sypd").Paper.Lo)
	fmt.Fprintln(w, "ne120 (25 km):")
	fmt.Fprintf(w, "%8s %8s %8s\n", "procs", "openacc", "athread")
	for _, np := range []int{2400, 9600, 14400, 21600, 24000, 28800} {
		acc, ath := c120.SYPD(perf.VersionOpenACC, np), c120.SYPD(perf.VersionAthread, np)
		fmt.Fprintf(w, "%8d %8.2f %8.2f\n", np, acc, ath)
		ne120 = append(ne120, map[string]any{"procs": np, "openacc": acc, "athread": ath})
	}
	fmt.Fprintf(w, "paper anchor: %g SYPD openacc @28800\n\n", ledger().Get("fig6.ne120.sypd").Paper.Lo)
	return map[string]any{"ne30": ne30, "ne120": ne120}
}

func fig7(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 7: HOMME strong scaling (nlev=128) ==")
	out := map[string]any{}
	for _, s := range []struct {
		ne    int
		procs []int
	}{
		{256, []int{4096, 8192, 16384, 32768, 65536, 131072}},
		{1024, []int{8192, 16384, 32768, 65536, 131072}},
	} {
		h := perf.DefaultHOMMEConfig(s.ne)
		fmt.Fprintf(w, "ne%d:\n%8s %10s %8s\n", s.ne, "procs", "PFlops", "eff")
		var rows []map[string]any
		for _, np := range s.procs {
			pf, eff := h.PFlops(np, true), h.Efficiency(np, s.procs[0], true)
			fmt.Fprintf(w, "%8d %10.3f %8.3f\n", np, pf, eff)
			rows = append(rows, map[string]any{"procs": np, "pflops": pf, "efficiency": eff})
		}
		out[fmt.Sprintf("ne%d", s.ne)] = rows
	}
	paper := func(id string) float64 { return ledger().Get(id).Paper.Lo }
	fmt.Fprintf(w, "paper anchors: ne256 %g->%g PFlops (%.1f%% eff);\n",
		paper("fig7.ne256.pflops_4096"), paper("fig7.ne256.pflops_131072"), 100*paper("fig7.ne256.eff"))
	fmt.Fprintf(w, "               ne1024 %g->%g PFlops (%.1f%% eff)\n\n",
		paper("fig7.ne1024.pflops_8192"), paper("fig7.ne1024.pflops_131072"), 100*paper("fig7.ne1024.eff"))
	return out
}

func fig8(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 8: HOMME weak scaling (nlev=128) ==")
	fmt.Fprintf(w, "%6s %8s %10s %8s\n", "e/proc", "procs", "PFlops", "eff")
	var out []map[string]any
	for _, e := range []int{48, 192, 650, 768} {
		for _, np := range []int{512, 2048, 8192, 32768, 131072} {
			pf, eff := perf.WeakScaling(e, np, 128, 4).PFlops, perf.WeakEfficiency(e, np, 512, 128, 4)
			fmt.Fprintf(w, "%6d %8d %10.3f %8.3f\n", e, np, pf, eff)
			out = append(out, map[string]any{"elems_per_proc": e, "procs": np, "pflops": pf, "efficiency": eff})
		}
	}
	l := ledger()
	full := l.Get("fig8.full.pflops")
	fmt.Fprintf(w, "full machine: 650 elems x 155,000 procs (%s cores): %.2f PFlops\n", fullMachineCores(), full.Measured)
	fmt.Fprintf(w, "paper anchors: %.1f%%/%.1f%%/%.1f%% eff at 131,072; %g PFlops at 155,000\n\n",
		100*l.Get("fig8.eff48").Paper.Lo, 100*l.Get("fig8.eff192").Paper.Lo, 100*l.Get("fig8.eff768").Paper.Lo,
		full.Paper.Lo)
	return out
}

func fig9(w io.Writer) any {
	fmt.Fprintln(w, "== Figure 9: hurricane resolution sensitivity + track machinery ==")
	vp := tc.KatrinaLikeVortex()
	var out []map[string]any
	for _, ne := range []int{4, 12} {
		run, err := tc.RunResolution(ne, 8, 24, 12, vp)
		check(err)
		ret := run.FinalKt / run.InitialKt
		fmt.Fprintf(w, "ne%-3d (%4.0f km grid): init %5.1f kt -> final %5.1f kt (retention %.2f)\n",
			ne, run.GridKM, run.InitialKt, run.FinalKt, ret)
		out = append(out, map[string]any{"ne": ne, "grid_km": run.GridKM, "initial_kt": run.InitialKt,
			"final_kt": run.FinalKt, "retention": ret})
	}
	fmt.Fprintln(w, "paper claim (9a/9b): 25 km resolves the storm, 100 km cannot")
	kt, h := tc.KatrinaPeak()
	fmt.Fprintf(w, "observed Katrina peak: %.0f kt at hour %.0f (Aug 28 18Z), min 902 hPa\n", kt, h)
	fmt.Fprintln(w, "(run cmd/katrina for the full lifecycle track/intensity comparison)")
	fmt.Fprintln(w)
	return out
}

func fig10(w io.Writer) any {
	fmt.Fprintln(w, "== Extra: the §7.6 bndry_exchangev redesign at scale ==")
	fmt.Fprintf(w, "   (paper: the overlap removes up to %.0f%% of HOMME runtime;\n",
		100*ledger().Get("overlap.saving").Paper.Lo)
	fmt.Fprintln(w, "    direct unpack removes the staging copies entirely)")
	h := perf.DefaultHOMMEConfig(1024)
	fmt.Fprintf(w, "%8s %14s %14s %10s\n", "procs", "no overlap (s)", "overlap (s)", "saving")
	var out []map[string]any
	for np := 4096; np <= 131072; np *= 2 {
		tNo, _ := h.StepTime(np, false)
		tOv, _ := h.StepTime(np, true)
		save := (tNo - tOv) / tNo
		fmt.Fprintf(w, "%8d %14.6f %14.6f %9.1f%%\n", np, tNo, tOv, 100*save)
		out = append(out, map[string]any{"procs": np, "no_overlap_s": tNo, "overlap_s": tOv, "saving": save})
	}
	fmt.Fprintln(w)
	return out
}

func ledgerTable(w io.Writer) any {
	fmt.Fprintln(w, "== Ledger: every paper number the model reproduces (EXPERIMENTS.md) ==")
	fmt.Fprint(w, ledger().Markdown())
	return ledger()
}

// fullMachineCores is the 155,000-process run's core count, with
// thousands separators.
func fullMachineCores() string {
	n := int(ledger().Get("750m.cores").Measured)
	return fmt.Sprintf("%d,%03d,%03d", n/1000000, n/1000%1000, n%1000)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
