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
	dp, slopeW, edgeW := rw.dpS[:n:n], rw.slopeW[:n:n], rw.edgeW[:n:n]
	copy(dp, dpS)
	rw.dpT = append(rw.dpT[:0], dpT...)

	// Slope weights (CW84 eq. 1.7); loops run over a stencil's right cell r.
	for r := 2; r < n; r++ {
		j := r - 1
		dm, d0, dp1 := dp[j-1], dp[j], dp[r]
		slopeW[j] = slopeWeights{
			w0: d0 / (dm + d0 + dp1),
			w1: (2*dm + d0) / (dp1 + d0),
			w2: (d0 + 2*dp1) / (dm + d0),
		}
	}
	// Edge weights (CW84 eq. 1.6) and the low-order boundary edges.
	for r := 3; r < n; r++ {
		j := r - 2
		dm, d0, d1, d2 := dp[j-1], dp[j], dp[j+1], dp[r]
		sum := dm + d0 + d1 + d2
		edgeW[j] = edgeWeights{
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
	zS := rw.zS[: n+1 : n+1]
	zTop, zBot := zS[:n], zS[1:][:n]
	zS[0] = 0
	for j, d := range dp {
		zBot[j] = zTop[j] + d
	}
	m := len(dpT) - 1
	if m < 0 {
		m = 0
	}
	if cap(rw.walk) < m {
		rw.walk = make([]remapStep, m)
	}
	walk := rw.walk[:m]
	rw.walk = walk
	zt, zPrev, j := 0.0, math.Inf(-1), 0
	for t, d := range dpT[:m] {
		zt += d
		if zt <= 0 {
			walk[t] = remapStep{j: -1}
			continue
		}
		if !(zt >= zPrev) {
			j = 0
		}
		for !(zt <= zBot[j] || j == n-1) {
			j++
		}
		zPrev = zt
		x := (zt - zTop[j]) / dp[j]
		if x > 1 {
			x = 1
		}
		x2 := x * x
		walk[t] = remapStep{j: j, x: x, x2: x2, cub: x2/2 - x2*x/3}
	}
}

// buildPPM reconstructs monotonic parabolas for cell averages a on the
// prepared source widths (Colella & Woodward 1984, non-uniform grid).
// Boundary cells fall back to piecewise-constant, as HOMME's remap does
// at the model top and surface.
func (rw *RemapWorkspace) buildPPM(a []float64) {
	n := len(a)
	dp, slope, edge, slopeW, edgeW := rw.dpS[:n:n], rw.slope[:n:n], rw.edge[:n+1:n+1], rw.slopeW[:n:n], rw.edgeW[:n:n]
	aL, da, a6 := rw.coef.aL[:n:n], rw.coef.da[:n:n], rw.coef.a6[:n:n]
	// Limited slopes (CW84 eq. 1.7-1.8).
	slope[0], slope[n-1] = 0, 0
	for r := 2; r < n; r++ {
		j := r - 1
		dl, dr := a[j]-a[j-1], a[r]-a[j]
		slope[j] = 0
		if dr*dl > 0 {
			w := &slopeW[j]
			s := w.w0 * (w.w1*dr + w.w2*dl)
			lim := math.Min(math.Abs(s), 2*math.Abs(dl))
			lim = math.Min(lim, 2*math.Abs(dr))
			slope[j] = math.Copysign(lim, s)
		}
	}
	// Edge values between cells j and j+1 (CW84 eq. 1.6).
	eL, eR := edge[:n], edge[1:][:n]
	for r := 3; r < n; r++ {
		j := r - 2
		w := &edgeW[j]
		d := a[j+1] - a[j]
		eR[j] = a[j] + w.lin*d + w.inv*(w.jump*d-w.right*slope[j+1]+w.left*slope[j])
	}
	// Low-order edges near the column boundaries.
	edge[0] = a[0]
	edge[1] = (a[0]*dp[1] + a[1]*dp[0]) / rw.den1
	edge[n-1] = (a[n-2]*dp[n-1] + a[n-1]*dp[n-2]) / rw.denN
	edge[n] = a[n-1]

	for j, aj := range a {
		aLj, aRj := eL[j], eR[j]
		// Monotonize the parabola (CW84 eq. 1.10).
		if (aRj-aj)*(aj-aLj) <= 0 {
			aLj, aRj = aj, aj
		} else {
			d := aRj - aLj
			a6j := 6*aj - 3*(aLj+aRj)
			if d*a6j > d*d {
				aLj = 3*aj - 2*aRj
			} else if -d*d > d*a6j {
				aRj = 3*aj - 2*aLj
			}
		}
		aL[j] = aLj
		da[j] = aRj - aLj
		a6[j] = 6*aj - 3*(aLj+aRj)
	}
}

// Apply remaps one field of cell averages a on the prepared column into
// the target averages out. It is exactly conservative: the cumulative
// mass at the column bottom is reproduced to roundoff.
func (rw *RemapWorkspace) Apply(a, out []float64) {
	dpS, dpT := rw.dpS, rw.dpT
	n := len(dpS)
	if len(a) != n || len(out) != len(dpT) {
		panic("dycore: PPM remap length mismatch")
	}
	rw.buildPPM(a)
	aL, da, a6 := rw.coef.aL[:n:n], rw.coef.da[:n:n], rw.coef.a6[:n:n]

	// Cumulative source mass at source interfaces.
	cum := rw.cum[: n+1 : n+1]
	cumTop, cumBot := cum[:n], cum[1:][:n]
	cum[0] = 0
	for j, d := range dpS {
		cumBot[j] = cumTop[j] + a[j]*d
	}
	// Cumulative mass at each target interface: the prepared cell's
	// cumulative mass plus the parabola's integral into it; the last
	// takes the exact column total (exact conservation).
	mPrev := 0.0
	walk := rw.walk
	outW := out[:len(walk)]
	for t, d := range dpT[:len(walk)] {
		var m float64
		if s := &walk[t]; s.j >= 0 {
			j := s.j
			m = cumTop[j] + dpS[j]*(aL[j]*s.x+da[j]*s.x2/2+a6[j]*s.cub)
		}
		outW[t] = (m - mPrev) / d
		mPrev = m
	}
	if last := len(dpT) - 1; last >= 0 {
		out[last] = (cum[n] - mPrev) / dpT[last]
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
	npsq, size := np*np, nlev*np*np
	u, v, tt, dp, qdp = u[:size:size], v[:size:size], tt[:size:size], dp[:size:size], qdp[:qsize*size]
	colSrc, colVal, colRef, colOut = colSrc[:nlev], colVal[:nlev], colRef[:nlev], colOut[:nlev]
	step := uint(npsq) // column loops bound level k and field index i both: neither is checked
	for n := 0; n < npsq; n++ {
		// Deformed column and its implied surface pressure.
		ps := PTop
		for k, i := 0, uint(n); k < nlev && i < uint(len(dp)); k, i = k+1, i+step {
			colSrc[k] = dp[i]
			ps += colSrc[k]
		}
		h.ReferenceDP(ps, colRef)
		rw.Prepare(colSrc, colRef)

		remapField := func(f []float64) {
			for k, i := 0, uint(n); k < nlev && i < uint(len(f)); k, i = k+1, i+step {
				colVal[k] = f[i]
			}
			rw.Apply(colVal, colOut)
			for k, i := 0, uint(n); k < nlev && i < uint(len(f)); k, i = k+1, i+step {
				f[i] = colOut[k]
			}
		}
		remapField(u)
		remapField(v)
		remapField(tt)
		for q := 0; q < qsize; q++ {
			// Tracers advect as mass qdp; remap the mixing ratio
			// q = qdp/dp (a cell average) and rebuild mass on the
			// reference grid.
			base := uint(q*size + n)
			for k, i := 0, base; k < nlev && i < uint(len(qdp)); k, i = k+1, i+step {
				colVal[k] = qdp[i] / colSrc[k]
			}
			rw.Apply(colVal, colOut)
			for k, i := 0, base; k < nlev && i < uint(len(qdp)); k, i = k+1, i+step {
				qdp[i] = colOut[k] * colRef[k]
			}
		}
		for k, i := 0, uint(n); k < nlev && i < uint(len(dp)); k, i = k+1, i+step {
			dp[i] = colRef[k]
		}
	}
}
