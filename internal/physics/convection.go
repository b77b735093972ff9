package physics

import "math"

// Betts-Miller moist convective adjustment: where a column is
// conditionally unstable and moist enough, temperature and humidity
// relax toward a moist-adiabatic, subsaturated reference profile over a
// fixed timescale, with an enthalpy correction that makes the scheme
// exactly energy-conserving; removed moisture falls as convective rain.

// ConvParams configures the adjustment.
type ConvParams struct {
	TauAdj  float64 // relaxation timescale, s
	RHRef   float64 // reference relative humidity of the post-convective profile
	MinCAPE float64 // trigger threshold on parcel buoyancy integral, J/kg
}

// DefaultConvParams returns standard Betts-Miller settings.
func DefaultConvParams() ConvParams {
	return ConvParams{TauAdj: 7200, RHRef: 0.8, MinCAPE: 10}
}

// moistAdiabatFrom lifts a parcel from level k0 and writes the
// temperature profile it implies for levels above (smaller k) to tRef,
// following a pseudoadiabat integrated in pressure, and that profile's
// saturation humidity to qsRef. qsRef[k] == QSat(tRef[k], P[k]) by
// construction: the lift already holds the value — qs on a dry level,
// the post-condensation qp on a saturated one.
func moistAdiabatFrom(c *Column, k0 int, tRef, qsRef []float64) {
	tp := c.T[k0]
	qp := c.Qv[k0]
	tRef[k0] = tp
	qsRef[k0] = QSat(tp, c.P[k0])
	for k := k0 - 1; k >= 0; k-- {
		dp := c.P[k] - c.P[k+1] // negative upward
		// Dry-adiabatic estimate, then latent correction if saturated.
		dT := Rd * tp / (Cp * c.P[k+1]) * dp
		tp += dT
		qs := QSat(tp, c.P[k])
		if qp > qs {
			// Condense: release latent heat, reduce parcel vapor, one
			// Newton correction on the saturation balance.
			excess := qp - qs
			gamma := Lv / Cp * dqsatdt(qs, tp)
			dTl := Lv / Cp * excess / (1 + gamma)
			tp += dTl
			qp = QSat(tp, c.P[k])
			qs = qp
		}
		tRef[k] = tp
		qsRef[k] = qs
	}
}

// capeOf is the convective available potential energy of the parcel
// profile tRef lifted from the lowest model level, using virtual
// temperature excess.
func capeOf(c *Column, tRef []float64) float64 {
	cape := 0.0
	for k := c.Nlev - 2; k >= 0; k-- {
		buoy := (tRef[k] - c.T[k]) / c.T[k]
		if buoy > 0 {
			cape += Rd * (tRef[k] - c.T[k]) * math.Log(c.P[k+1]/c.P[k])
		}
	}
	return cape
}

// BettsMiller applies one convective-adjustment step. Returns the
// convective precipitation produced (kg/m^2). The parcel is lifted once:
// the trigger and the reference profile read the same adiabat.
func BettsMiller(c *Column, cp ConvParams, dt float64) float64 {
	n := c.Nlev
	scr := c.scratch()
	tRef, qsRef := scr.tRef, scr.qsRef
	moistAdiabatFrom(c, n-1, tRef, qsRef)
	if capeOf(c, tRef) < cp.MinCAPE {
		return 0
	}

	// Find the cloud top: highest level where the parcel is buoyant.
	top := n - 1
	for k := 0; k < n-1; k++ {
		if tRef[k] > c.T[k] {
			top = k
			break
		}
	}
	if top >= n-1 {
		return 0
	}

	// First-guess tendencies toward (tRef, RHRef * qsat(tRef)).
	frac := dt / cp.TauAdj
	if frac > 1 {
		frac = 1
	}
	dTsum, dQsum := 0.0, 0.0 // mass-weighted changes
	dT := scr.dT
	dQ := scr.dQ
	for k := top; k < n; k++ {
		qRef := cp.RHRef * qsRef[k]
		dT[k] = frac * (tRef[k] - c.T[k])
		dQ[k] = frac * (qRef - c.Qv[k])
		dTsum += Cp * dT[k] * c.DP[k]
		dQsum += Lv * dQ[k] * c.DP[k]
	}
	// Enthalpy correction: shift the temperature adjustment uniformly so
	// cp*dT + Lv*dq integrates to zero (Betts' energy closure).
	var massSum float64
	for k := top; k < n; k++ {
		massSum += c.DP[k]
	}
	corr := -(dTsum + dQsum) / (Cp * massSum)
	precip := 0.0
	for k := top; k < n; k++ {
		c.T[k] += dT[k] + corr
		c.Qv[k] += dQ[k]
		precip += -dQ[k] * c.DP[k] / Gravit
	}
	if precip < 0 {
		// Net moistening columns don't rain; the closure above already
		// balanced energy, so just report zero precipitation.
		precip = 0
	}
	c.Precip += precip
	return precip
}
