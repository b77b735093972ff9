package dycore

import (
	"fmt"
	"math"
)

// Vertical remap (Table 1 row 3): after several dynamics steps on
// floating Lagrangian levels the layer thicknesses dp have deformed; the
// state is remapped back to the reference hybrid levels with the
// monotonic piecewise parabolic method (PPM) of Colella & Woodward, the
// scheme CAM-SE uses (remap_Q_ppm). The remap is written as a
// cumulative-mass interpolation, which makes it exactly conservative.

// ppmCoef holds the reconstruction of one source column: for each cell,
// the left edge value, the jump aR-aL, and the curvature a6.
type ppmCoef struct {
	aL, da, a6 []float64
}

// slopeWeights are the dp-only factors of the CW84 limited slope of one
// cell: s = w0 * (w1*(a[j+1]-a[j]) + w2*(a[j]-a[j-1])).
type slopeWeights struct{ w0, w1, w2 float64 }

// edgeWeights are the dp-only factors of the CW84 edge value between
// cells j and j+1: a[j] + lin*da + inv*(jump*da - right*slope[j+1] +
// left*slope[j]), with da = a[j+1]-a[j].
type edgeWeights struct{ lin, inv, jump, right, left float64 }

// remapStep locates one target interface in the source column: the
// containing source cell j (-1 at or above the model top, where the
// cumulative mass is 0) and the fraction x through it, with the x-only
// terms of the parabola's integral.
type remapStep struct {
	j          int
	x, x2, cub float64 // x, x*x, x*x/2 - x*x*x/3
}

// RemapWorkspace holds the PPM scratch for columns of one fixed length,
// so steady-state remap calls are allocation-free, and the geometry of
// the column being remapped. Prepare derives everything that depends
// only on the source and target thicknesses — the totals check, the
// slope and edge weights, and each target interface's source cell and
// fraction — once per column; Apply then remaps one field, any number
// of times. One workspace serves one goroutine at a time; callers that
// remap columns concurrently hold one workspace each.
type RemapWorkspace struct {
	coef        ppmCoef
	slope, edge []float64
	cum         []float64

	// Column geometry, written by Prepare and read by every Apply.
	dpS, dpT   []float64 // copies of the source and target thicknesses
	zS         []float64 // source interface depths (running sum of dpS)
	slopeW     []slopeWeights
	edgeW      []edgeWeights
	den1, denN float64 // boundary-edge denominators
	walk       []remapStep
}

// NewRemapWorkspace allocates scratch for columns of nlev cells.
func NewRemapWorkspace(nlev int) *RemapWorkspace {
	return &RemapWorkspace{
		coef: ppmCoef{
			aL: make([]float64, nlev),
			da: make([]float64, nlev),
			a6: make([]float64, nlev),
		},
		slope:  make([]float64, nlev),
		edge:   make([]float64, nlev+1),
		cum:    make([]float64, nlev+1),
		dpS:    make([]float64, nlev),
		dpT:    make([]float64, 0, nlev),
		zS:     make([]float64, nlev+1),
		slopeW: make([]slopeWeights, nlev),
		edgeW:  make([]edgeWeights, nlev),
		walk:   make([]remapStep, 0, nlev),
	}
}

// Prepare sets the column geometry for remapping cell averages on
// source thicknesses dpS onto target thicknesses dpT (same column total
// within roundoff; the workspace must have been sized for len(dpS)
// cells). The expressions and their association are exactly those the
// per-field remap evaluated, so Prepare + Apply is bit-identical to it.
func (rw *RemapWorkspace) Prepare(dpS, dpT []float64) {
	n := len(rw.coef.aL)
	if len(dpS) != n {
		panic("dycore: RemapWorkspace sized for a different column length")
	}
	var totS, totT float64
	for _, d := range dpS {
		totS += d
	}
	for _, d := range dpT {
		totT += d
	}
	if math.Abs(totS-totT) > 1e-8*math.Max(totS, 1) {
		panic(fmt.Sprintf("dycore: PPM remap column totals differ: %g vs %g", totS, totT))
	}
	dp := rw.dpS
	copy(dp, dpS)
	rw.dpT = append(rw.dpT[:0], dpT...)

	// Slope weights (CW84 eq. 1.7).
	for j := 1; j < n-1; j++ {
		dm, d0, dp1 := dp[j-1], dp[j], dp[j+1]
		rw.slopeW[j] = slopeWeights{
			w0: d0 / (dm + d0 + dp1),
			w1: (2*dm + d0) / (dp1 + d0),
			w2: (d0 + 2*dp1) / (dm + d0),
		}
	}
	// Edge weights (CW84 eq. 1.6) and the low-order boundary edges.
	for j := 1; j < n-2; j++ {
		dm, d0, d1, d2 := dp[j-1], dp[j], dp[j+1], dp[j+2]
		sum := dm + d0 + d1 + d2
		rw.edgeW[j] = edgeWeights{
			lin:   d0 / (d0 + d1),
			inv:   1 / sum,
			jump:  2 * d1 * d0 / (d0 + d1) * ((dm+d0)/(2*d0+d1) - (d2+d1)/(2*d1+d0)),
			right: d0 * (dm + d0) / (2*d0 + d1),
			left:  d1 * (d1 + d2) / (d0 + 2*d1),
		}
	}
	rw.den1 = dp[0] + dp[1]
	rw.denN = dp[n-2] + dp[n-1]

	// Locate every target interface but the last (which takes the exact
	// column total) in the source column. Interface depths only grow, so
	// one monotone walk replaces a scan from the top per interface: the
	// cell holding depth z is the first j with z <= zS[j+1] (or the last
	// cell), and every cell before the one holding a shallower depth
	// fails that test for z too. A depth that does not grow (a negative
	// or NaN thickness) restarts the walk from the top.
	zS := rw.zS
	zS[0] = 0
	for j := 0; j < n; j++ {
		zS[j+1] = zS[j] + dp[j]
	}
	m := len(dpT) - 1
	if m < 0 {
		m = 0
	}
	if cap(rw.walk) < m {
		rw.walk = make([]remapStep, m)
	}
	rw.walk = rw.walk[:m]
	zt, zPrev, j := 0.0, math.Inf(-1), 0
	for t := range rw.walk {
		zt += dpT[t]
		if zt <= 0 {
			rw.walk[t] = remapStep{j: -1}
			continue
		}
		if !(zt >= zPrev) {
			j = 0
		}
		for !(zt <= zS[j+1] || j == n-1) {
			j++
		}
		zPrev = zt
		x := (zt - zS[j]) / dp[j]
		if x > 1 {
			x = 1
		}
		x2 := x * x
		rw.walk[t] = remapStep{j: j, x: x, x2: x2, cub: x2/2 - x2*x/3}
	}
}

// buildPPM reconstructs monotonic parabolas for cell averages a on the
// prepared source widths (Colella & Woodward 1984, non-uniform grid).
// Boundary cells fall back to piecewise-constant, as HOMME's remap does
// at the model top and surface.
func (rw *RemapWorkspace) buildPPM(a []float64) {
	n := len(a)
	dp, slope, edge, c := rw.dpS, rw.slope, rw.edge, &rw.coef
	// Limited slopes (CW84 eq. 1.7-1.8).
	slope[0], slope[n-1] = 0, 0
	for j := 1; j < n-1; j++ {
		dl, dr := a[j]-a[j-1], a[j+1]-a[j]
		slope[j] = 0
		if dr*dl > 0 {
			w := &rw.slopeW[j]
			s := w.w0 * (w.w1*dr + w.w2*dl)
			lim := math.Min(math.Abs(s), 2*math.Abs(dl))
			lim = math.Min(lim, 2*math.Abs(dr))
			slope[j] = math.Copysign(lim, s)
		}
	}
	// Edge values between cells j and j+1 (CW84 eq. 1.6).
	for j := 1; j < n-2; j++ {
		w := &rw.edgeW[j]
		da := a[j+1] - a[j]
		edge[j+1] = a[j] + w.lin*da + w.inv*(w.jump*da-w.right*slope[j+1]+w.left*slope[j])
	}
	// Low-order edges near the column boundaries.
	edge[0] = a[0]
	edge[1] = (a[0]*dp[1] + a[1]*dp[0]) / rw.den1
	edge[n-1] = (a[n-2]*dp[n-1] + a[n-1]*dp[n-2]) / rw.denN
	edge[n] = a[n-1]

	for j := 0; j < n; j++ {
		aL, aR := edge[j], edge[j+1]
		// Monotonize the parabola (CW84 eq. 1.10).
		if (aR-a[j])*(a[j]-aL) <= 0 {
			aL, aR = a[j], a[j]
		} else {
			d := aR - aL
			a6 := 6*a[j] - 3*(aL+aR)
			if d*a6 > d*d {
				aL = 3*a[j] - 2*aR
			} else if -d*d > d*a6 {
				aR = 3*a[j] - 2*aL
			}
		}
		c.aL[j] = aL
		c.da[j] = aR - aL
		c.a6[j] = 6*a[j] - 3*(aL+aR)
	}
}

// Apply remaps one field of cell averages a on the prepared column into
// the target averages out. It is exactly conservative: the cumulative
// mass at the column bottom is reproduced to roundoff.
func (rw *RemapWorkspace) Apply(a, out []float64) {
	n := len(rw.dpS)
	if len(a) != n || len(out) != len(rw.dpT) {
		panic("dycore: PPM remap length mismatch")
	}
	rw.buildPPM(a)
	c := &rw.coef
	dpS := rw.dpS

	// Cumulative source mass at source interfaces.
	cum := rw.cum
	cum[0] = 0
	for j := 0; j < n; j++ {
		cum[j+1] = cum[j] + a[j]*dpS[j]
	}
	// Cumulative mass at each target interface: the prepared cell's
	// cumulative mass plus the parabola's integral into it.
	mPrev := 0.0
	last := len(rw.dpT) - 1
	for t, d := range rw.dpT {
		var m float64
		switch {
		case t == last:
			m = cum[n] // exact conservation at the column end
		case rw.walk[t].j >= 0:
			s := &rw.walk[t]
			j := s.j
			m = cum[j] + dpS[j]*(c.aL[j]*s.x+c.da[j]*s.x2/2+c.a6[j]*s.cub)
		}
		out[t] = (m - mPrev) / d
		mPrev = m
	}
}

// RemapStateElem remaps one element's state from its deformed Lagrangian
// thicknesses back to the reference hybrid grid: velocities and
// temperature as mass-weighted averages (conserving momentum and
// internal energy), tracers as masses, then resets DP to the reference.
// Column scratch buffers (len nlev) and the PPM workspace are supplied
// by the caller, so warmed callers remap without heap allocation.
func RemapStateElem(h *HybridCoord, np, nlev, qsize int,
	u, v, tt, dp, qdp []float64,
	colSrc, colVal, colRef, colOut []float64, rw *RemapWorkspace) {
	npsq := np * np
	for n := 0; n < npsq; n++ {
		// Deformed column and its implied surface pressure.
		ps := PTop
		for k := 0; k < nlev; k++ {
			colSrc[k] = dp[k*npsq+n]
			ps += colSrc[k]
		}
		h.ReferenceDP(ps, colRef)
		rw.Prepare(colSrc, colRef)

		remapField := func(f []float64) {
			for k := 0; k < nlev; k++ {
				colVal[k] = f[k*npsq+n]
			}
			rw.Apply(colVal, colOut)
			for k := 0; k < nlev; k++ {
				f[k*npsq+n] = colOut[k]
			}
		}
		remapField(u)
		remapField(v)
		remapField(tt)
		for q := 0; q < qsize; q++ {
			// Tracers advect as mass qdp; remap the mixing ratio
			// q = qdp/dp (a cell average) and rebuild mass on the
			// reference grid.
			base := q * nlev * npsq
			for k := 0; k < nlev; k++ {
				colVal[k] = qdp[base+k*npsq+n] / colSrc[k]
			}
			rw.Apply(colVal, colOut)
			for k := 0; k < nlev; k++ {
				qdp[base+k*npsq+n] = colOut[k] * colRef[k]
			}
		}
		for k := 0; k < nlev; k++ {
			dp[k*npsq+n] = colRef[k]
		}
	}
}
