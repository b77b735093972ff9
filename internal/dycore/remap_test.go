package dycore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRemapIdentityOnSameGrid(t *testing.T) {
	dp := []float64{10, 20, 30, 25, 15}
	a := []float64{1, 3, 2, 5, 4}
	out := make([]float64, 5)
	RemapPPM(dp, a, dp, out)
	for i := range a {
		if math.Abs(out[i]-a[i]) > 1e-12 {
			t.Fatalf("identity remap changed cell %d: %v -> %v", i, a[i], out[i])
		}
	}
}

func TestRemapConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		dpS := make([]float64, n)
		dpT := make([]float64, n)
		a := make([]float64, n)
		totS := 0.0
		for i := range dpS {
			dpS[i] = 0.5 + rng.Float64()
			totS += dpS[i]
			a[i] = rng.NormFloat64()
		}
		// A different positive target grid with the same total.
		totT := 0.0
		for i := range dpT {
			dpT[i] = 0.5 + rng.Float64()
			totT += dpT[i]
		}
		for i := range dpT {
			dpT[i] *= totS / totT
		}
		out := make([]float64, n)
		RemapPPM(dpS, a, dpT, out)
		var mS, mT float64
		for i := range a {
			mS += a[i] * dpS[i]
			mT += out[i] * dpT[i]
		}
		if math.Abs(mS-mT) > 1e-10*(1+math.Abs(mS)) {
			t.Fatalf("trial %d: mass %v -> %v", trial, mS, mT)
		}
	}
}

func TestRemapPreservesConstant(t *testing.T) {
	dpS := []float64{5, 10, 15, 10, 5, 20}
	dpT := []float64{10, 10, 10, 10, 10, 15}
	a := []float64{7, 7, 7, 7, 7, 7}
	out := make([]float64, len(a))
	RemapPPM(dpS, a, dpT, out)
	for i, v := range out {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("constant not preserved at %d: %v", i, v)
		}
	}
}

func TestRemapMonotone(t *testing.T) {
	// Monotone input data must produce no new extrema (the PPM limiter).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(20)
		dpS := make([]float64, n)
		dpT := make([]float64, n)
		a := make([]float64, n)
		tot := 0.0
		run := 0.0
		for i := range a {
			dpS[i] = 0.5 + rng.Float64()
			tot += dpS[i]
			run += rng.Float64()
			a[i] = run // nondecreasing
		}
		tt := 0.0
		for i := range dpT {
			dpT[i] = 0.5 + rng.Float64()
			tt += dpT[i]
		}
		for i := range dpT {
			dpT[i] *= tot / tt
		}
		out := make([]float64, n)
		RemapPPM(dpS, a, dpT, out)
		lo, hi := a[0], a[n-1]
		for i, v := range out {
			if v < lo-1e-10 || v > hi+1e-10 {
				t.Fatalf("trial %d: overshoot at %d: %v outside [%v,%v]", trial, i, v, lo, hi)
			}
		}
	}
}

func TestRemapLinearProfileHighAccuracy(t *testing.T) {
	// A linear-in-z profile should be reproduced almost exactly away from
	// the boundary cells (parabolas represent linears exactly).
	n := 40
	dpS := make([]float64, n)
	dpT := make([]float64, n)
	a := make([]float64, n)
	zc := 0.0
	for i := range a {
		dpS[i] = 1
		dpT[i] = 1 + 0.3*math.Sin(float64(i)) // same total? fix below
		a[i] = 2*(zc+0.5) + 1                 // linear in cell centre
		zc++
	}
	tot := 0.0
	for _, d := range dpT {
		tot += d
	}
	for i := range dpT {
		dpT[i] *= float64(n) / tot
	}
	out := make([]float64, n)
	RemapPPM(dpS, a, dpT, out)
	// Check target cell averages against the exact linear integral.
	zl := 0.0
	for i := range out {
		zr := zl + dpT[i]
		exact := (zr*zr - zl*zl + (zr - zl)) / dpT[i] // avg of 2z+1
		if i > 2 && i < n-3 {
			if math.Abs(out[i]-exact) > 1e-10 {
				t.Fatalf("linear profile wrong at %d: %v vs %v", i, out[i], exact)
			}
		}
		zl = zr
	}
}

func TestRemapPanicsOnTotalMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("total mismatch accepted")
		}
	}()
	RemapPPM([]float64{1, 1}, []float64{1, 1}, []float64{1, 2}, make([]float64, 2))
}

// Property test: remap then remap back conserves mass exactly and damps
// (never amplifies) the max norm for arbitrary data.
func TestRemapRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		dpS := make([]float64, n)
		dpT := make([]float64, n)
		a := make([]float64, n)
		tot := 0.0
		for i := range a {
			dpS[i] = 0.2 + rng.Float64()
			tot += dpS[i]
			a[i] = rng.NormFloat64() * 10
		}
		tt := 0.0
		for i := range dpT {
			dpT[i] = 0.2 + rng.Float64()
			tt += dpT[i]
		}
		for i := range dpT {
			dpT[i] *= tot / tt
		}
		mid := make([]float64, n)
		back := make([]float64, n)
		RemapPPM(dpS, a, dpT, mid)
		RemapPPM(dpT, mid, dpS, back)
		var m0, m2, amax, bmax float64
		for i := range a {
			m0 += a[i] * dpS[i]
			m2 += back[i] * dpS[i]
			if v := math.Abs(a[i]); v > amax {
				amax = v
			}
			if v := math.Abs(back[i]); v > bmax {
				bmax = v
			}
		}
		return math.Abs(m0-m2) < 1e-9*(1+math.Abs(m0)) && bmax <= amax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridCoordBasics(t *testing.T) {
	for _, nlev := range []int{4, 30, 128} {
		h := NewHybridCoord(nlev)
		if err := h.Validate(0.5*P0, 1.1*P0); err != nil {
			t.Fatalf("nlev=%d: %v", nlev, err)
		}
		pInt := make([]float64, nlev+1)
		h.InterfacePressure(P0, pInt)
		if math.Abs(pInt[0]-PTop) > 1e-9 {
			t.Errorf("nlev=%d: top pressure %v, want %v", nlev, pInt[0], PTop)
		}
		if math.Abs(pInt[nlev]-P0) > 1e-9 {
			t.Errorf("nlev=%d: surface pressure %v, want %v", nlev, pInt[nlev], P0)
		}
		for k := 0; k < nlev; k++ {
			if pInt[k+1] <= pInt[k] {
				t.Fatalf("nlev=%d: interfaces not monotone at %d", nlev, k)
			}
		}
		// dp from ReferenceDP must match interface differences.
		dp := make([]float64, nlev)
		h.ReferenceDP(P0, dp)
		for k := 0; k < nlev; k++ {
			if math.Abs(dp[k]-(pInt[k+1]-pInt[k])) > 1e-9 {
				t.Fatalf("nlev=%d: dp mismatch at %d", nlev, k)
			}
		}
	}
}

func TestRemapStateElemConservs(t *testing.T) {
	// Full element remap: mass, momentum, internal energy, tracer mass
	// per column are conserved.
	const np, nlev, qsize = 4, 12, 2
	h := NewHybridCoord(nlev)
	npsq := np * np
	rng := rand.New(rand.NewSource(5))
	u := make([]float64, nlev*npsq)
	v := make([]float64, nlev*npsq)
	tt := make([]float64, nlev*npsq)
	dp := make([]float64, nlev*npsq)
	qdp := make([]float64, qsize*nlev*npsq)
	ref := make([]float64, nlev)
	h.ReferenceDP(P0, ref)
	for n := 0; n < npsq; n++ {
		for k := 0; k < nlev; k++ {
			i := k*npsq + n
			dp[i] = ref[k] * (1 + 0.1*rng.NormFloat64()) // deformed
			if dp[i] < 0.1*ref[k] {
				dp[i] = 0.1 * ref[k]
			}
			u[i] = rng.NormFloat64() * 30
			v[i] = rng.NormFloat64() * 30
			tt[i] = 250 + 30*rng.Float64()
			for q := 0; q < qsize; q++ {
				qdp[q*nlev*npsq+i] = rng.Float64() * dp[i]
			}
		}
	}
	colMass := func(f, w []float64, n int) float64 {
		tot := 0.0
		for k := 0; k < nlev; k++ {
			tot += f[k*npsq+n] * w[k*npsq+n]
		}
		return tot
	}
	ones := make([]float64, nlev*npsq)
	for i := range ones {
		ones[i] = 1
	}
	type before struct{ mass, mom, en, q0 float64 }
	var b [16]before
	for n := 0; n < npsq; n++ {
		b[n] = before{
			mass: colMass(dp, ones, n),
			mom:  colMass(u, dp, n),
			en:   colMass(tt, dp, n),
			q0:   colMass(qdp[:nlev*npsq], ones, n),
		}
	}
	colA := make([]float64, nlev)
	colB := make([]float64, nlev)
	colC := make([]float64, nlev)
	colD := make([]float64, nlev)
	RemapStateElem(h, np, nlev, qsize, u, v, tt, dp, qdp, colA, colB, colC, colD, NewRemapWorkspace(nlev))
	for n := 0; n < npsq; n++ {
		if d := math.Abs(colMass(dp, ones, n) - b[n].mass); d > 1e-8*b[n].mass {
			t.Errorf("node %d: column mass changed by %g", n, d)
		}
		if d := math.Abs(colMass(u, dp, n) - b[n].mom); d > 1e-6*(1+math.Abs(b[n].mom)) {
			t.Errorf("node %d: column momentum changed by %g", n, d)
		}
		if d := math.Abs(colMass(tt, dp, n) - b[n].en); d > 1e-6*b[n].en {
			t.Errorf("node %d: column heat changed by %g", n, d)
		}
		if d := math.Abs(colMass(qdp[:nlev*npsq], ones, n) - b[n].q0); d > 1e-8*(1+b[n].q0) {
			t.Errorf("node %d: tracer mass changed by %g", n, d)
		}
	}
	// dp must now equal the reference grid for the (conserved) column ps.
	for n := 0; n < npsq; n++ {
		ps := PTop
		for k := 0; k < nlev; k++ {
			ps += dp[k*npsq+n]
		}
		want := make([]float64, nlev)
		h.ReferenceDP(ps, want)
		for k := 0; k < nlev; k++ {
			if math.Abs(dp[k*npsq+n]-want[k]) > 1e-8*want[k] {
				t.Fatalf("node %d level %d: dp not on reference grid", n, k)
			}
		}
	}
}

// RemapPPM remaps cell averages a from source thicknesses dpS onto
// target thicknesses dpT (same column total within roundoff), storing
// target averages in out: Prepare + Apply on a workspace allocated per
// call. Steady-state callers hold a RemapWorkspace, prepare each column
// once, and apply it to every field.
func RemapPPM(dpS, a, dpT, out []float64) {
	if len(dpS) != len(a) || len(dpT) != len(out) {
		panic("dycore: RemapPPM length mismatch")
	}
	rw := NewRemapWorkspace(len(a))
	rw.Prepare(dpS, dpT)
	rw.Apply(a, out)
}
