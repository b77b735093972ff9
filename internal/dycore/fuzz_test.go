package dycore

import (
	"math"
	"testing"
)

// FuzzRemapPPM: for arbitrary positive grids with matched totals, the
// remap must conserve mass exactly, never panic or produce NaN, and
// match the pre-split oracle (remap_oracle_test.go) bit for bit.
func FuzzRemapPPM(f *testing.F) {
	f.Add(uint8(8), 1.0, 2.0, 0.5)
	f.Add(uint8(30), 0.1, 5.0, -3.0)
	f.Add(uint8(3), 2.0, 2.0, 100.0)
	f.Fuzz(func(t *testing.T, nRaw uint8, w1, w2, amp float64) {
		n := 2 + int(nRaw)%62
		if math.IsNaN(w1) || math.IsNaN(w2) || math.IsNaN(amp) ||
			math.IsInf(w1, 0) || math.IsInf(w2, 0) || math.IsInf(amp, 0) {
			t.Skip()
		}
		// Build strictly positive widths from the fuzzed scales.
		pos := func(x float64, i int) float64 {
			v := math.Abs(x)*(1+0.3*math.Sin(float64(i))) + 0.1
			if v > 1e6 {
				v = 1e6
			}
			return v
		}
		dpS := make([]float64, n)
		dpT := make([]float64, n)
		a := make([]float64, n)
		var totS, totT float64
		for i := 0; i < n; i++ {
			dpS[i] = pos(w1, i)
			dpT[i] = pos(w2, i+7)
			totS += dpS[i]
			totT += dpT[i]
			if math.Abs(amp) < 1e15 {
				a[i] = amp * math.Cos(float64(3*i))
			}
		}
		for i := range dpT {
			dpT[i] *= totS / totT
		}
		out := make([]float64, n)
		RemapPPM(dpS, a, dpT, out)
		want := make([]float64, n)
		oracleRemapPPM(dpS, a, dpT, want)
		if i := firstBitDiff(out, want); i >= 0 {
			t.Fatalf("out[%d] = %v, oracle %v", i, out[i], want[i])
		}
		var mS, mT float64
		for i := 0; i < n; i++ {
			if math.IsNaN(out[i]) {
				t.Fatalf("NaN in remap output at %d", i)
			}
			mS += a[i] * dpS[i]
			mT += out[i] * dpT[i]
		}
		if math.Abs(mS-mT) > 1e-8*(1+math.Abs(mS)) {
			t.Fatalf("mass not conserved: %g -> %g", mS, mT)
		}
	})
}
