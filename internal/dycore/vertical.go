package dycore

import (
	"fmt"
	"math"
)

// HybridCoord is the hybrid sigma-pressure vertical coordinate of CAM:
// the pressure at layer interface k is
//
//	p_int(k) = HyAI[k]*P0 + HyBI[k]*ps,   k = 0..Nlev (0 = model top)
//
// so layer thicknesses dp(k) = p_int(k+1) - p_int(k) respond to surface
// pressure through the HyBI increments.
type HybridCoord struct {
	Nlev int
	HyAI []float64 // pure-pressure interface coefficients, len Nlev+1
	HyBI []float64 // sigma interface coefficients, len Nlev+1
	HyAM []float64 // midpoint coefficients, len Nlev
	HyBM []float64
}

// NewHybridCoord builds an analytic CAM-like coordinate: eta varies
// linearly from eta_top = PTop/P0 to 1, the sigma part grows as
// ((eta-eta_top)/(1-eta_top))^1.6 so upper levels are pure pressure and
// lower levels follow the terrain, matching the qualitative shape of
// CAM's tabulated coefficients.
func NewHybridCoord(nlev int) *HybridCoord {
	if nlev < 2 {
		panic(fmt.Sprintf("dycore: nlev must be >= 2, got %d", nlev))
	}
	h := &HybridCoord{
		Nlev: nlev,
		HyAI: make([]float64, nlev+1),
		HyBI: make([]float64, nlev+1),
		HyAM: make([]float64, nlev),
		HyBM: make([]float64, nlev),
	}
	etaTop := PTop / P0
	for k := 0; k <= nlev; k++ {
		eta := etaTop + (1-etaTop)*float64(k)/float64(nlev)
		s := (eta - etaTop) / (1 - etaTop)
		b := pow16(s)
		h.HyBI[k] = b
		h.HyAI[k] = eta - b
	}
	for k := 0; k < nlev; k++ {
		h.HyAM[k] = (h.HyAI[k] + h.HyAI[k+1]) / 2
		h.HyBM[k] = (h.HyBI[k] + h.HyBI[k+1]) / 2
	}
	return h
}

// pow16 computes s^1.6 for s >= 0 (coefficient generation only).
func pow16(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return math.Pow(s, 1.6)
}

// InterfacePressure fills pInt (len Nlev+1) with interface pressures for
// surface pressure ps.
func (h *HybridCoord) InterfacePressure(ps float64, pInt []float64) {
	for k := 0; k <= h.Nlev; k++ {
		pInt[k] = h.HyAI[k]*P0 + h.HyBI[k]*ps
	}
}

// ReferenceDP fills dp (len Nlev) with the reference layer thicknesses
// for surface pressure ps — the target grid of the vertical remap.
func (h *HybridCoord) ReferenceDP(ps float64, dp []float64) {
	for k := 0; k < h.Nlev; k++ {
		dp[k] = (h.HyAI[k+1]-h.HyAI[k])*P0 + (h.HyBI[k+1]-h.HyBI[k])*ps
	}
}
