// Command scaling runs the scaling campaign. Two measured modes drive
// real goroutine-rank sweeps of the distributed runtime on the host
// (internal/scale) and print the measured curves, plus (calibrate) the
// fitted cost model and the extrapolation table; three model modes
// print the analytic TaihuLight machine model's curves.
//
//	scaling -mode measured  -ne 8 -min-np 16 -max-np 256
//	scaling -mode calibrate -ne 8 -min-np 16 -max-np 256
//	scaling -mode model-strong  -ne 256 -base 4096 -min-np 4096 -max-np 131072
//	scaling -mode model-weak    -elems 650 -min-np 512 -max-np 131072
//	scaling -mode model-overlap -ne 1024 -min-np 4096 -max-np 131072
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swcam/internal/exec"
	"swcam/internal/perf"
	"swcam/internal/scale"
)

func main() {
	mode := flag.String("mode", "model-strong",
		"measured | calibrate | model-strong | model-weak | model-overlap")
	ne := flag.Int("ne", 0, "resolution (strong sweeps; model modes default 256)")
	elems := flag.Int("elems", 48, "elements per process for model-weak")
	base := flag.Int("base", 0, "efficiency baseline process count (model-strong; default min-np)")
	minNp := flag.Int("min-np", 0, "sweep start: goroutine ranks (measured) or processes (model)")
	maxNp := flag.Int("max-np", 0, "sweep end (inclusive), doubling from min-np")
	backendName := flag.String("backend", "athread", "measured-sweep backend: intel|openacc|athread")
	nlev := flag.Int("nlev", 8, "vertical levels for measured sweeps")
	qsize := flag.Int("qsize", 2, "tracer count for measured sweeps")
	steps := flag.Int("steps", 2, "dynamics steps per measured point")
	budgetMB := flag.Int("budget-mb", 512, "per-rank memory budget for measured sweeps, MiB (0 = unlimited)")
	weakElems := flag.Int("weak-elems", 6, "weak-curve target elements per rank")
	overlap := flag.Bool("overlap", true, "measured sweeps use the §7.6 boundary-first exchange")
	projectNe := flag.String("project-ne", "30,120,256,1024,3072,4000",
		"comma-separated resolutions for the calibrated extrapolation table")
	machineRanks := flag.Int("machine-ranks", perf.TotalCGs,
		"full-machine rank count the extrapolation targets (default TaihuLight's core groups)")
	flag.Parse()

	switch *mode {
	case "measured", "calibrate":
		runMeasured(*mode, *ne, *minNp, *maxNp, *backendName, *nlev, *qsize, *steps,
			*budgetMB, *weakElems, *overlap, *projectNe, *machineRanks)
	case "model-strong":
		h := perf.DefaultHOMMEConfig(defInt(*ne, 256))
		lo, hi := defInt(*minNp, 4096), defInt(*maxNp, 131072)
		b := defInt(*base, lo)
		fmt.Println("nprocs,pflops,efficiency,step_seconds")
		for np := lo; np <= hi; np *= 2 {
			t, _ := h.StepTime(np, true)
			fmt.Printf("%d,%.4f,%.4f,%.6f\n", np, h.PFlops(np, true),
				h.Efficiency(np, b, true), t)
		}
	case "model-weak":
		lo, hi := defInt(*minNp, 512), defInt(*maxNp, 131072)
		fmt.Println("nprocs,pflops,efficiency,step_seconds")
		for np := lo; np <= hi; np *= 2 {
			w := perf.WeakScaling(*elems, np, 128, 4)
			fmt.Printf("%d,%.4f,%.4f,%.6f\n", np, w.PFlops,
				perf.WeakEfficiency(*elems, np, lo, 128, 4), w.StepTime)
		}
		w := perf.WeakScaling(*elems, 155000, 128, 4)
		fmt.Printf("155000,%.4f,%.4f,%.6f\n", w.PFlops,
			perf.WeakEfficiency(*elems, 155000, lo, 128, 4), w.StepTime)
	case "model-overlap":
		// Ablation: the redesigned bndry_exchangev vs the original, as a
		// function of scale (the paper: comm is ~23% of prim_run at
		// millions of cores; overlap removes most of it).
		h := perf.DefaultHOMMEConfig(defInt(*ne, 1024))
		lo, hi := defInt(*minNp, 4096), defInt(*maxNp, 131072)
		fmt.Println("nprocs,step_no_overlap,step_overlap,saving_pct")
		for np := lo; np <= hi; np *= 2 {
			tNo, _ := h.StepTime(np, false)
			tOv, _ := h.StepTime(np, true)
			fmt.Printf("%d,%.6f,%.6f,%.1f\n", np, tNo, tOv, 100*(tNo-tOv)/tNo)
		}
	default:
		fmt.Fprintf(os.Stderr, "scaling: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
	os.Exit(1)
}

func runMeasured(mode string, ne, minNp, maxNp int, backendName string,
	nlev, qsize, steps, budgetMB, weakElems int, overlap bool,
	projectNe string, machineRanks int) {
	backend, err := exec.ParseBackend(backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(2)
	}
	ne = defInt(ne, 8)
	lo, hi := defInt(minNp, 16), defInt(maxNp, 256)
	var ranks []int
	for np := lo; np <= hi; np *= 2 {
		ranks = append(ranks, np)
	}
	if len(ranks) == 0 {
		fatal(fmt.Errorf("empty rank sweep: min-np %d > max-np %d", lo, hi))
	}

	c := &scale.Campaign{Cfg: scale.Config{
		Backend: backend, Nlev: nlev, Qsize: qsize, Steps: steps,
		Overlap: overlap, BudgetBytes: int64(budgetMB) << 20,
		WeakElemsPerRank: weakElems,
	}}
	skip := func(kind string) func(int, error) {
		return func(r int, why error) {
			fmt.Fprintf(os.Stderr, "scaling: %s sweep skipped ranks=%d: %v\n", kind, r, why)
		}
	}
	fmt.Fprintf(os.Stderr, "scaling: strong sweep ne=%d ranks %v (%s, nlev=%d qsize=%d steps=%d)\n",
		ne, ranks, backendName, nlev, qsize, steps)
	strong, err := c.StrongSweep(ne, ranks, skip("strong"))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scaling: weak sweep ranks %v (target %d elems/rank)\n", ranks, weakElems)
	weak, err := c.WeakSweep(ranks, skip("weak"))
	if err != nil {
		fatal(err)
	}

	printCurve("strong scaling (measured)", strong)
	printCurve("weak scaling (measured)", weak)

	if mode == "calibrate" {
		all := append(append([]scale.Point{}, strong...), weak...)
		fit, err := scale.Fit(all)
		if err != nil {
			fatal(err)
		}
		var nes []int
		for _, tok := range strings.Split(projectNe, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(fmt.Errorf("bad -project-ne entry %q: %w", tok, err))
			}
			nes = append(nes, n)
		}
		proj, err := scale.Extrapolate(fit, all, nes, machineRanks, nlev, qsize)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ncalibrated cost model (%d points, residual RMS %.1f%%):\n",
			fit.Points, 100*fit.ResidualRMS)
		fmt.Printf("  %.3g ns/flop  %.3g ns/byte  %.3g ns/msg  %.3g ns/wire-byte  %.3g ns fixed\n",
			fit.NsPerFlop, fit.NsPerByte, fit.NsPerMsg, fit.NsPerWireByte, fit.FixedNs)
		fmt.Printf("\nextrapolation to %d ranks (calibrated this-box cores | analytic TaihuLight model):\n",
			machineRanks)
		fmt.Println("ne,res_km,ranks,sypd_calibrated,sypd_model")
		for _, r := range proj {
			fmt.Printf("%d,%.3g,%d,%.4g,%.4g\n", r.Ne, r.ResKm, r.Ranks, r.SYPD, r.ModelSYPD)
		}
	}
}

func printCurve(title string, pts []scale.Point) {
	fmt.Printf("\n%s:\n", title)
	fmt.Println("ne,ranks,elems_per_rank,per_step_ms,sypd,dyn_ms,halo_ms,coll_ms,wire_mb,rank_mb")
	for _, p := range pts {
		fmt.Printf("%d,%d,%d,%.3f,%.4g,%.3f,%.3f,%.3f,%.3f,%.1f\n",
			p.Ne, p.Ranks, p.ElemsPerRank,
			float64(p.PerStepNs)/1e6, p.SYPD,
			float64(p.DynNs)/1e6, float64(p.HaloNs)/1e6, float64(p.CollNs)/1e6,
			float64(p.WireBytes)/(1<<20), float64(p.RankBytes)/(1<<20))
	}
}
