package dycore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The remap oracle: a verbatim copy of the PPM remap as it stood before
// the geometry/field split (Prepare once per column, Apply per field),
// which rederived the dp-only weights and scanned the source column
// from the top for every target interface of every field. The live
// remap must reproduce it bit for bit.

func oracleBuildPPM(dp, a []float64, c *ppmCoef, slope, edge []float64) {
	n := len(a)
	// Limited slopes (CW84 eq. 1.7-1.8).
	for j := range slope {
		slope[j] = 0
	}
	for j := 1; j < n-1; j++ {
		dm, d0, dp1 := dp[j-1], dp[j], dp[j+1]
		s := d0 / (dm + d0 + dp1) *
			((2*dm+d0)/(dp1+d0)*(a[j+1]-a[j]) + (d0+2*dp1)/(dm+d0)*(a[j]-a[j-1]))
		if (a[j+1]-a[j])*(a[j]-a[j-1]) > 0 {
			lim := math.Min(math.Abs(s), 2*math.Abs(a[j]-a[j-1]))
			lim = math.Min(lim, 2*math.Abs(a[j+1]-a[j]))
			slope[j] = math.Copysign(lim, s)
		}
	}
	// Edge values between cells j and j+1 (CW84 eq. 1.6).
	for j := 1; j < n-2; j++ {
		dm, d0, d1, d2 := dp[j-1], dp[j], dp[j+1], dp[j+2]
		sum := dm + d0 + d1 + d2
		e := a[j] + d0/(d0+d1)*(a[j+1]-a[j]) +
			1/sum*(2*d1*d0/(d0+d1)*((dm+d0)/(2*d0+d1)-(d2+d1)/(2*d1+d0))*(a[j+1]-a[j])-
				d0*(dm+d0)/(2*d0+d1)*slope[j+1]+
				d1*(d1+d2)/(d0+2*d1)*slope[j])
		edge[j+1] = e
	}
	// Low-order edges near the column boundaries.
	edge[0] = a[0]
	edge[1] = (a[0]*dp[1] + a[1]*dp[0]) / (dp[0] + dp[1])
	if n >= 2 {
		edge[n-1] = (a[n-2]*dp[n-1] + a[n-1]*dp[n-2]) / (dp[n-2] + dp[n-1])
	}
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

func oracleCellMass(c *ppmCoef, j int, dp, x float64) float64 {
	x2 := x * x
	return dp * (c.aL[j]*x + c.da[j]*x2/2 + c.a6[j]*(x2/2-x2*x/3))
}

// oracleRemapPPM is the old RemapPPM with its own scratch.
func oracleRemapPPM(dpS, a, dpT, out []float64) {
	n := len(a)
	if len(dpS) != n || len(dpT) != len(out) {
		panic("dycore: RemapPPM length mismatch")
	}
	var totS, totT float64
	for _, d := range dpS {
		totS += d
	}
	for _, d := range dpT {
		totT += d
	}
	if math.Abs(totS-totT) > 1e-8*math.Max(totS, 1) {
		panic(fmt.Sprintf("dycore: RemapPPM column totals differ: %g vs %g", totS, totT))
	}

	c := &ppmCoef{aL: make([]float64, n), da: make([]float64, n), a6: make([]float64, n)}
	oracleBuildPPM(dpS, a, c, make([]float64, n), make([]float64, n+1))

	// Cumulative source mass at source interfaces.
	cum := make([]float64, n+1)
	cum[0] = 0
	for j := 0; j < n; j++ {
		cum[j+1] = cum[j] + a[j]*dpS[j]
	}
	massAt := func(z float64) float64 {
		if z <= 0 {
			return 0
		}
		// Find containing source cell.
		zl := 0.0
		for j := 0; j < n; j++ {
			zr := zl + dpS[j]
			if z <= zr || j == n-1 {
				x := (z - zl) / dpS[j]
				if x > 1 {
					x = 1
				}
				return cum[j] + oracleCellMass(c, j, dpS[j], x)
			}
			zl = zr
		}
		return cum[n]
	}
	zt := 0.0
	mPrev := 0.0
	for j := range dpT {
		zt += dpT[j]
		var m float64
		if j == len(dpT)-1 {
			m = cum[n] // exact conservation at the column end
		} else {
			m = massAt(zt)
		}
		out[j] = (m - mPrev) / dpT[j]
		mPrev = m
	}
}

// oracleRemapStateElem is the old RemapStateElem over oracleRemapPPM.
func oracleRemapStateElem(h *HybridCoord, np, nlev, qsize int, u, v, tt, dp, qdp []float64) {
	npsq := np * np
	colSrc, colVal := make([]float64, nlev), make([]float64, nlev)
	colRef, colOut := make([]float64, nlev), make([]float64, nlev)
	for n := 0; n < npsq; n++ {
		ps := PTop
		for k := 0; k < nlev; k++ {
			colSrc[k] = dp[k*npsq+n]
			ps += colSrc[k]
		}
		h.ReferenceDP(ps, colRef)
		remapField := func(f []float64) {
			for k := 0; k < nlev; k++ {
				colVal[k] = f[k*npsq+n]
			}
			oracleRemapPPM(colSrc, colVal, colRef, colOut)
			for k := 0; k < nlev; k++ {
				f[k*npsq+n] = colOut[k]
			}
		}
		remapField(u)
		remapField(v)
		remapField(tt)
		for q := 0; q < qsize; q++ {
			base := q * nlev * npsq
			for k := 0; k < nlev; k++ {
				colVal[k] = qdp[base+k*npsq+n] / colSrc[k]
			}
			oracleRemapPPM(colSrc, colVal, colRef, colOut)
			for k := 0; k < nlev; k++ {
				qdp[base+k*npsq+n] = colOut[k] * colRef[k]
			}
		}
		for k := 0; k < nlev; k++ {
			dp[k*npsq+n] = colRef[k]
		}
	}
}

// firstBitDiff reports the first index where two slices differ in bit
// pattern, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// remapOracleCase builds one seeded (dpS, dpT, fields) remap column:
// jittered source and target grids of equal total (the target possibly
// a different length), and several field shapes per grid — smooth,
// noisy, monotone, constant, zero, spiky — so the limiter's every branch
// and both boundary-edge formulas are hit under one geometry.
func remapOracleCase(rng *rand.Rand, n, m int) (dpS, dpT []float64, fields [][]float64) {
	dpS, dpT = make([]float64, n), make([]float64, m)
	var totS, totT float64
	for i := range dpS {
		dpS[i] = 0.05 + rng.Float64()*math.Pow(10, 2*rng.Float64())
		totS += dpS[i]
	}
	for i := range dpT {
		dpT[i] = 0.05 + rng.Float64()*math.Pow(10, 2*rng.Float64())
		totT += dpT[i]
	}
	for i := range dpT {
		dpT[i] *= totS / totT
	}
	run := 0.0
	smooth, noisy, mono := make([]float64, n), make([]float64, n), make([]float64, n)
	constant, zero, spiky := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		smooth[i] = 250 + 30*math.Cos(float64(i)/3)
		noisy[i] = 40 * rng.NormFloat64()
		run += rng.Float64()
		mono[i] = run
		constant[i] = 7.25
		if rng.Intn(5) == 0 {
			spiky[i] = 1e3 * rng.Float64()
		}
	}
	return dpS, dpT, [][]float64{smooth, noisy, mono, constant, zero, spiky}
}

// TestRemapPrepareApplyMatchesOracle: one Prepare per geometry, one
// Apply per field, bit-identical to the old per-field RemapPPM — as is
// the RemapPPM wrapper, with one workspace reused across shapes of the
// same length, and the whole-element RemapStateElem.
func TestRemapPrepareApplyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	workspaces := map[int]*RemapWorkspace{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(63)
		m := n
		if trial%5 == 4 {
			m = 1 + rng.Intn(2*n) // target of another length
		}
		dpS, dpT, fields := remapOracleCase(rng, n, m)
		rw := workspaces[n]
		if rw == nil {
			rw = NewRemapWorkspace(n)
			workspaces[n] = rw
		}
		rw.Prepare(dpS, dpT)
		for fi, a := range fields {
			want := make([]float64, m)
			oracleRemapPPM(dpS, a, dpT, want)
			got := make([]float64, m)
			rw.Apply(a, got)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d m=%d) field %d: Apply out[%d] = %v, oracle %v", trial, n, m, fi, i, got[i], want[i])
			}
			RemapPPM(dpS, a, dpT, got)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d m=%d) field %d: RemapPPM out[%d] = %v, oracle %v", trial, n, m, fi, i, got[i], want[i])
			}
		}
	}

	// Whole elements: deformed columns onto the hybrid reference grid.
	const np, qsize = 4, 3
	for _, nlev := range []int{4, 16, 30} {
		h := NewHybridCoord(nlev)
		npsq := np * np
		ref := make([]float64, nlev)
		h.ReferenceDP(P0, ref)
		size := nlev * npsq
		u, v, tt, dp := make([]float64, size), make([]float64, size), make([]float64, size), make([]float64, size)
		qdp := make([]float64, qsize*size)
		for n := 0; n < npsq; n++ {
			for k := 0; k < nlev; k++ {
				i := k*npsq + n
				dp[i] = ref[k] * math.Max(0.1, 1+0.2*rng.NormFloat64())
				u[i], v[i] = 30*rng.NormFloat64(), 30*rng.NormFloat64()
				tt[i] = 250 + 30*rng.Float64()
				for q := 0; q < qsize; q++ {
					qdp[q*size+i] = rng.Float64() * dp[i]
				}
			}
		}
		clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
		wu, wv, wt, wdp, wq := clone(u), clone(v), clone(tt), clone(dp), clone(qdp)
		oracleRemapStateElem(h, np, nlev, qsize, wu, wv, wt, wdp, wq)
		cols := [4][]float64{}
		for i := range cols {
			cols[i] = make([]float64, nlev)
		}
		RemapStateElem(h, np, nlev, qsize, u, v, tt, dp, qdp,
			cols[0], cols[1], cols[2], cols[3], NewRemapWorkspace(nlev))
		for _, f := range []struct {
			name      string
			got, want []float64
		}{{"U", u, wu}, {"V", v, wv}, {"T", tt, wt}, {"DP", dp, wdp}, {"Qdp", qdp, wq}} {
			if i := firstBitDiff(f.got, f.want); i >= 0 {
				t.Fatalf("nlev %d: RemapStateElem %s[%d] = %v, oracle %v", nlev, f.name, i, f.got[i], f.want[i])
			}
		}
	}
}
