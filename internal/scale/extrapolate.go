package scale

import (
	"fmt"
	"math"

	"swcam/internal/dycore"
	"swcam/internal/obs"
	"swcam/internal/perf"
)

// unitCosts are per-element / per-rank workload rates distilled from a
// measured sweep: what one element-step costs in accounted flops and
// memory bytes, and what one rank-step costs in messages and halo wire
// bytes (the wire term carries the surface-to-volume scaling — wire
// bytes grow with the perimeter √(elems/rank), not the area).
type unitCosts struct {
	flopsPerElemStep float64
	bytesPerElemStep float64
	msgsPerRankStep  float64
	wireUnit         float64 // wire bytes per rank-step per √(elems/rank)
}

func deriveUnits(points []Point) (unitCosts, error) {
	var u unitCosts
	if len(points) == 0 {
		return u, fmt.Errorf("scale: no measured points to derive unit costs from")
	}
	for _, p := range points {
		elemSteps := float64(6*p.Ne*p.Ne) * float64(p.Steps)
		rankSteps := float64(p.Ranks) * float64(p.Steps)
		epr := float64(6*p.Ne*p.Ne) / float64(p.Ranks)
		u.flopsPerElemStep += float64(p.Flops) / elemSteps
		u.bytesPerElemStep += float64(p.MemBytes) / elemSteps
		u.msgsPerRankStep += float64(p.Msgs) / rankSteps
		u.wireUnit += float64(p.WireBytes) / rankSteps / math.Sqrt(epr)
	}
	n := float64(len(points))
	u.flopsPerElemStep /= n
	u.bytesPerElemStep /= n
	u.msgsPerRankStep /= n
	u.wireUnit /= n
	return u, nil
}

// Projection is one row of the NGGPS-style extrapolation table: a
// resolution, the rank count it would run at, and the SYPD the
// calibrated model (the host's measured coefficients scaled out) and the
// TaihuLight machine model predict.
type Projection struct {
	Ne        int
	ResKm     float64
	Ranks     int
	SYPD      float64 // calibrated-coefficients projection
	ModelSYPD float64 // analytic TaihuLight model
}

// Extrapolate produces the NGGPS-style SYPD-vs-resolution table: for
// each target ne it sizes the full-machine run (one rank per core
// group, capped at one element per rank), bills ONE rank's per-step
// workload through the calibrated coefficients, and converts the
// predicted step wall time to SYPD. The calibrated column therefore
// answers "a machine built of this container's measured core, one per
// rank" — the honest extrapolation from a one-box campaign; the
// ModelSYPD column re-asks the analytic TaihuLight machine model
// (spec/lit constants, §7.6 overlap on) at the same configuration, so
// the table shows measured-calibrated and modeled predictions side by
// side the way the paper's Fig. 10 compares measured points against its
// model curve.
func Extrapolate(fit Coeffs, points []Point,
	nes []int, machineRanks, nlev, qsize int) ([]Projection, error) {
	if machineRanks < 1 {
		machineRanks = perf.TotalCGs
	}
	u, err := deriveUnits(points)
	if err != nil {
		return nil, err
	}
	var rows []Projection
	for _, ne := range nes {
		if ne < 1 {
			return nil, fmt.Errorf("scale: extrapolation ne %d", ne)
		}
		elems := 6 * ne * ne
		ranks := machineRanks
		if elems < ranks {
			ranks = elems
		}
		epr := float64(elems) / float64(ranks)
		perStepNs := PredictPerStepNs(fit,
			u.flopsPerElemStep*epr,
			u.bytesPerElemStep*epr,
			u.msgsPerRankStep,
			u.wireUnit*math.Sqrt(epr),
		)
		if perStepNs <= 0 || math.IsNaN(perStepNs) || math.IsInf(perStepNs, 0) {
			return nil, fmt.Errorf("scale: calibrated step time %v ns at ne=%d — fit not usable for extrapolation", perStepNs, ne)
		}
		dt := dycore.DefaultConfig(ne).Dt
		sypd := obs.SYPD(dt, perStepNs*1e-9)

		hc := perf.HOMMEConfig{Ne: ne, Np: 4, Nlev: nlev, Qsize: qsize, RemapFreq: 2, Dt: dt}
		stepSec, _ := hc.StepTime(ranks, true)
		modelSypd := obs.SYPD(dt, stepSec)

		rows = append(rows, Projection{
			Ne:        ne,
			ResKm:     3000 / float64(ne),
			Ranks:     ranks,
			SYPD:      sypd,
			ModelSYPD: modelSypd,
		})
	}
	return rows, nil
}
