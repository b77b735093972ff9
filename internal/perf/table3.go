package perf

import (
	"math"

	"swcam/internal/baseline"
)

// Table 3: the NGGPS dycore comparison — run time of a 2-hour forecast
// at 12.5 km and a 30-minute forecast at 3 km for our redesigned HOMME
// vs FV3-like and MPAS-like cost models, at the paper's process counts.
//
// All three dycores run through the same machine model (roofline over
// per-column flop/byte volumes, halo exchange, fixed per-step cost); the
// structural differences live in baseline.DycoreCost. Absolute seconds
// are anchored by a single scale factor that pins our 12.5 km entry to
// the paper's value, table3Anchor [cal]; every other number — both
// resolutions, both baselines — then follows from the models, so the
// ratios and the widening gap at 3 km are genuine model output. The
// ledger (ledger.go) compares each entry with the paper's.

// Table3Row is one dycore's entry at one resolution.
type Table3Row struct {
	ID      string // the ledger row holding the paper's value
	Name    string
	NProcs  int
	RunTime float64 // seconds
}

// Table3Case is one resolution block of the table.
type Table3Case struct {
	Label    string
	Forecast float64 // simulated seconds
	Rows     []Table3Row
}

// nggpsColumns returns the global column count at a grid spacing dx (m):
// sphere area over dx^2.
func nggpsColumns(dx float64) float64 {
	const earthArea = 4 * math.Pi * 6.376e6 * 6.376e6
	return earthArea / (dx * dx)
}

// nggpsDtBase is the stable explicit step of the SE reference at grid
// spacing dx: advective CFL with ~350 m/s gravity-wave speed and a 0.7
// safety factor times the dycore's DtFactor.
func nggpsDtBase(dx float64) float64 { return 0.7 * dx / 350 * 125 / 10 }

// dycoreStepTime models one step of a dycore on one core group holding
// cols columns of nlev levels.
func dycoreStepTime(d baseline.DycoreCost, cols float64, nlev int, nprocs int) float64 {
	flops := cols * d.FlopsPerCell * float64(nlev)
	bytes := cols * d.BytesPerCell * float64(nlev)
	compute := math.Max(flops/(64*CPEVectorRate*0.75), bytes/(CGMemBW*CGEfficiency))
	// Halo: perimeter columns x halo width x levels x 8 bytes x fields.
	perim := 4 * math.Sqrt(cols) * float64(d.HaloWidth)
	msg := perim * float64(nlev) * 8 * 4
	bw := NetBWPerCG / (1 + NetContention*float64(nprocs)/float64(TotalCGs))
	comm := float64(d.ExchangesStep) * (8*NetLatency + msg/bw)
	return compute + comm + d.FixedPerStep
}

// table3Anchor is the paper's run time for our 12.5 km entry, seconds:
// the one Table 3 value the model is calibrated to. [cal]
const table3Anchor = 2.712

// table3Scale pins our 12.5 km entry to table3Anchor.
var table3Scale = table3Anchor / table3RunTime(baseline.OursSE, 12500, 131072, 7200, 1)

// table3RunTime is the unscaled forecast wall time.
func table3RunTime(d baseline.DycoreCost, dx float64, nprocs int, forecast, scale float64) float64 {
	const nlev = 128
	cols := nggpsColumns(dx) / float64(nprocs)
	dt := nggpsDtBase(dx) * d.DtFactor
	steps := math.Ceil(forecast / dt)
	return steps * dycoreStepTime(d, cols, nlev, nprocs) * scale
}

// Table3 generates both resolution blocks at the paper's process counts.
func Table3() []Table3Case {
	return []Table3Case{
		{
			Label: "12.5 km simulation for 2-hour prediction workload", Forecast: 7200,
			Rows: []Table3Row{
				{ID: "table3.12km.ours", Name: "our work", NProcs: 131072, RunTime: table3RunTime(baseline.OursSE, 12500, 131072, 7200, table3Scale)},
				{ID: "table3.12km.fv3", Name: "FV3", NProcs: 110592, RunTime: table3RunTime(baseline.FV3Like, 12500, 110592, 7200, table3Scale)},
				{ID: "table3.12km.mpas", Name: "MPAS", NProcs: 96000, RunTime: table3RunTime(baseline.MPASLike, 12500, 96000, 7200, table3Scale)},
			},
		},
		{
			Label: "3 km simulation for 30-min prediction workload", Forecast: 1800,
			Rows: []Table3Row{
				{ID: "table3.3km.ours", Name: "our work", NProcs: 131072, RunTime: table3RunTime(baseline.OursSE, 3000, 131072, 1800, table3Scale)},
				{ID: "table3.3km.fv3", Name: "FV3", NProcs: 110592, RunTime: table3RunTime(baseline.FV3Like, 3000, 110592, 1800, table3Scale)},
				{ID: "table3.3km.mpas", Name: "MPAS", NProcs: 131072, RunTime: table3RunTime(baseline.MPASLike, 3000, 131072, 1800, table3Scale)},
			},
		},
	}
}
