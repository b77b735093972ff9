package physics

// Kessler-style warm-rain microphysics: large-scale saturation
// adjustment (condensation/evaporation between vapor and cloud),
// autoconversion and accretion from cloud to rain, rain evaporation in
// subsaturated air, and instant sedimentation of rain to the surface.
// Water and moist enthalpy are conserved exactly up to the precipitated
// mass.

// MicroParams configures the scheme.
type MicroParams struct {
	QcAuto   float64 // autoconversion threshold, kg/kg
	AutoRate float64 // autoconversion timescale^-1, 1/s
	AccrRate float64 // accretion efficiency, 1/s per kg/kg of rain
	EvapRate float64 // rain evaporation efficiency, 1/s per unit subsaturation
}

// DefaultMicroParams returns Kessler-like constants.
func DefaultMicroParams() MicroParams {
	return MicroParams{QcAuto: 5e-4, AutoRate: 1e-3, AccrRate: 2.2, EvapRate: 1e-4}
}

// saturationAdjust condenses supersaturation into cloud (or evaporates
// cloud into subsaturated air), with the latent-heat Newton correction.
func saturationAdjust(c *Column, k int) {
	qs := QSat(c.T[k], c.P[k])
	gamma := Lv / Cp * dqsatdt(qs, c.T[k])
	excess := (c.Qv[k] - qs) / (1 + gamma)
	if excess > 0 {
		// Condense.
		c.Qv[k] -= excess
		c.Qc[k] += excess
		c.T[k] += Lv / Cp * excess
	} else if c.Qc[k] > 0 {
		// Evaporate cloud up to saturation or until the cloud is gone.
		evap := -excess
		if evap > c.Qc[k] {
			evap = c.Qc[k]
		}
		c.Qv[k] += evap
		c.Qc[k] -= evap
		c.T[k] -= Lv / Cp * evap
	}
}

// Kessler applies one microphysics step and returns the large-scale
// (stratiform) precipitation reaching the surface, kg/m^2.
func Kessler(c *Column, mp MicroParams, dt float64) float64 {
	n := c.Nlev
	for k := 0; k < n; k++ {
		saturationAdjust(c, k)

		// Autoconversion: cloud above threshold converts to rain.
		if c.Qc[k] > mp.QcAuto {
			conv := mp.AutoRate * (c.Qc[k] - mp.QcAuto) * dt
			if conv > c.Qc[k] {
				conv = c.Qc[k]
			}
			c.Qc[k] -= conv
			c.Qr[k] += conv
		}
		// Accretion: rain collects cloud.
		if c.Qr[k] > 0 && c.Qc[k] > 0 {
			acc := mp.AccrRate * c.Qr[k] * c.Qc[k] * dt
			if acc > c.Qc[k] {
				acc = c.Qc[k]
			}
			c.Qc[k] -= acc
			c.Qr[k] += acc
		}
		// Rain evaporation in subsaturated air.
		if c.Qr[k] > 0 {
			qs := QSat(c.T[k], c.P[k])
			sub := qs - c.Qv[k]
			if sub > 0 {
				evap := mp.EvapRate * sub * dt * c.Qr[k] / (qs + 1e-12)
				if evap > c.Qr[k] {
					evap = c.Qr[k]
				}
				c.Qv[k] += evap
				c.Qr[k] -= evap
				c.T[k] -= Lv / Cp * evap
			}
		}
	}
	// Sedimentation: all rain falls out this step (instant fallout, the
	// Kessler limit for long physics timesteps), collecting mass on the
	// way down.
	precip := 0.0
	for k := 0; k < n; k++ {
		precip += c.Qr[k] * c.DP[k] / Gravit
		c.Qr[k] = 0
	}
	c.Precip += precip
	return precip
}
