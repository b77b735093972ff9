package scale

import (
	"fmt"
	"math"
)

// Coeffs is the calibrated cost model: per-step rank time fitted as
// a·flops + b·membytes + c·msgs + d·wirebytes + e over the measured
// points.
type Coeffs struct {
	NsPerFlop     float64
	NsPerByte     float64
	NsPerMsg      float64
	NsPerWireByte float64
	FixedNs       float64
	Points        int     // measurements fitted
	ResidualRMS   float64 // RMS relative residual over the fit
}

// Fit least-squares calibrates the additive cost model
//
//	perStepWallNs = a·flops + c·msgs + d·wireBytes + e
//
// over the measured points — the compute / message-latency /
// wire-bandwidth / fixed-overhead decomposition the analytic machine
// model uses. The predictors are per-step TOTALS across ranks: on one
// box the goroutine ranks share the same cores, so wall time tracks
// total work, and the coefficients are this box's effective rates
// (a ≈ ns per accounted flop through the whole driver, d ≈ ns per halo
// byte, e ≈ fixed per-step overhead). Kernel memory bytes are NOT a
// separate predictor: at fixed nlev/qsize they are exactly proportional
// to flops across any sweep, so the normal equations would be singular
// — the memory cost is folded into the effective ns/flop, and the
// reported NsPerByte is zero. The coefficients are cost rates, so they
// are constrained non-negative: the normal equations are solved by an
// active-set non-negative least squares (solve, drop the most negative
// coefficient to zero, re-solve the reduced system), which keeps a
// noisy sweep from fitting a negative latency or fixed term that would
// predict negative step times downstream. At least 5 points with
// genuinely varying predictors are required, and more are better.
func Fit(points []Point) (Coeffs, error) {
	var fit Coeffs
	if len(points) < 5 {
		return fit, fmt.Errorf("scale: fit needs >= 5 measured points, have %d", len(points))
	}
	const k = 4
	var ata [k][k]float64
	var atb [k]float64
	predictors := func(p Point) [k]float64 {
		steps := float64(p.Steps)
		return [k]float64{
			float64(p.Flops) / steps,
			float64(p.Msgs) / steps,
			float64(p.WireBytes) / steps,
			1,
		}
	}
	for _, p := range points {
		x := predictors(p)
		y := float64(p.PerStepNs)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += x[i] * x[j]
			}
			atb[i] += x[i] * y
		}
	}
	coef, err := nnlsSolve(ata, atb)
	if err != nil {
		return fit, err
	}
	fit = Coeffs{
		NsPerFlop:     coef[0],
		NsPerMsg:      coef[1],
		NsPerWireByte: coef[2],
		FixedNs:       coef[3],
		Points:        len(points),
	}
	// RMS relative residual: how much of the measured curve the linear
	// model explains.
	var ss float64
	for _, p := range points {
		x := predictors(p)
		pred := 0.0
		for i := 0; i < k; i++ {
			pred += coef[i] * x[i]
		}
		rel := (pred - float64(p.PerStepNs)) / float64(p.PerStepNs)
		ss += rel * rel
	}
	fit.ResidualRMS = math.Sqrt(ss / float64(len(points)))
	for _, v := range []float64{fit.NsPerFlop, fit.NsPerByte, fit.NsPerMsg, fit.NsPerWireByte, fit.FixedNs, fit.ResidualRMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fit, fmt.Errorf("scale: degenerate fit (coefficient NaN/Inf) — predictors do not vary enough")
		}
	}
	return fit, nil
}

// PredictPerStepNs evaluates a fitted model on per-step workload totals.
func PredictPerStepNs(fit Coeffs, flops, memBytes, msgs, wireBytes float64) float64 {
	return fit.NsPerFlop*flops + fit.NsPerByte*memBytes +
		fit.NsPerMsg*msgs + fit.NsPerWireByte*wireBytes + fit.FixedNs
}

// nnlsSolve solves the 4-predictor normal equations subject to
// coefficients >= 0, by the classic active-set scheme: solve the
// unconstrained system over the active columns, and while any solved
// coefficient is negative, clamp the most negative one to zero (drop
// its column) and re-solve. Terminates in at most 4 rounds.
func nnlsSolve(ata [4][4]float64, atb [4]float64) ([4]float64, error) {
	const k = 4
	active := [k]bool{true, true, true, true}
	var coef [k]float64
	for {
		var idx []int
		for i := 0; i < k; i++ {
			if active[i] {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return coef, fmt.Errorf("scale: every cost coefficient fit negative — measurements do not follow an additive cost model")
		}
		m := len(idx)
		a := make([][]float64, m)
		b := make([]float64, m)
		for r := 0; r < m; r++ {
			a[r] = make([]float64, m)
			for c := 0; c < m; c++ {
				a[r][c] = ata[idx[r]][idx[c]]
			}
			b[r] = atb[idx[r]]
		}
		x, bad := gauss(a, b)
		if bad >= 0 {
			return coef, fmt.Errorf("scale: singular normal equations (column %d) — predictors are collinear", idx[bad])
		}
		coef = [k]float64{}
		worst, worstAt := 0.0, -1
		for r, i := range idx {
			coef[i] = x[r]
			if x[r] < worst {
				worst, worstAt = x[r], i
			}
		}
		if worstAt < 0 {
			return coef, nil
		}
		active[worstAt] = false
	}
}

// gauss solves a dense m×m system in place by Gaussian elimination with
// partial pivoting. On a (near-)singular pivot it returns the offending
// column index; -1 means success.
func gauss(a [][]float64, b []float64) ([]float64, int) {
	m := len(b)
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return nil, col
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for cc := col; cc < m; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		s := b[r]
		for cc := r + 1; cc < m; cc++ {
			s -= a[r][cc] * x[cc]
		}
		x[r] = s / a[r][r]
	}
	return x, -1
}
