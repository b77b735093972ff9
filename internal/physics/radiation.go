package physics

import "math"

// Gray-atmosphere two-stream radiation (Frierson et al. 2006 style):
// longwave optical depth increases toward the surface, upward and
// downward fluxes integrate the Schwarzschild equations level by level,
// and the heating rate is the flux divergence. Shortwave is a simple
// absorbed-at-surface solar beam modulated by latitude.

// RadParams configures the gray radiation.
type RadParams struct {
	TauEq    float64 // longwave optical depth at the equatorial surface
	TauPole  float64 // at the polar surface
	LinFrac  float64 // fraction of tau growing linearly with p/ps (rest quartic)
	Solar    float64 // solar constant x (1-albedo)/4, W/m^2
	SolarDel float64 // latitudinal contrast of insolation
}

// DefaultRadParams returns the Frierson-like defaults.
func DefaultRadParams() RadParams {
	return RadParams{TauEq: 6.0, TauPole: 1.5, LinFrac: 0.1, Solar: 238, SolarDel: 1.4}
}

const sbSigma = 5.670374419e-8 // Stefan-Boltzmann

// tau0 returns the surface longwave optical depth at latitude lat.
func (rp RadParams) tau0(lat float64) float64 {
	return rp.TauEq + (rp.TauPole-rp.TauEq)*math.Sin(lat)*math.Sin(lat)
}

// lwTau returns longwave optical depth at normalized pressure s = p/ps
// under the column's surface depth tau0.
func (rp RadParams) lwTau(tau0, s float64) float64 {
	return tau0 * (rp.LinFrac*s + (1-rp.LinFrac)*s*s*s*s)
}

// Insolation returns the absorbed shortwave flux at latitude lat.
func (rp RadParams) Insolation(lat float64) float64 {
	sl := math.Sin(lat)
	return rp.Solar * (1 + rp.SolarDel/4*(1-3*sl*sl)) // P2-weighted annual mean
}

// GrayRadiation applies one radiative timestep to the column: longwave
// cooling from the two-stream integration and shortwave heating of the
// surface layer. Returns the net top-of-atmosphere outgoing longwave
// flux (diagnostic).
func GrayRadiation(c *Column, rp RadParams, dt float64) (olr float64) {
	n := c.Nlev
	scr := c.scratch()
	// Interface optical depths.
	tau := scr.tau
	tau[0] = 0
	tau0 := rp.tau0(c.Lat)
	pInt := 0.0
	for k := 0; k < n; k++ {
		pInt += c.DP[k]
		tau[k+1] = rp.lwTau(tau0, pInt/c.Ps)
	}
	// Per layer: transmissivity e = exp(-dtau) and emission B(1-e) from
	// the Planck source B, each computed once and read by both beams.
	trans, emit := scr.trans, scr.emit
	for k := 0; k < n; k++ {
		e := math.Exp(-(tau[k+1] - tau[k]))
		trans[k] = e
		emit[k] = sbSigma * c.T[k] * c.T[k] * c.T[k] * c.T[k] * (1 - e)
	}
	// Downward beam: D(0) = 0; dD/dtau = B - D.
	down := scr.down
	down[0] = 0
	for k := 0; k < n; k++ {
		down[k+1] = down[k]*trans[k] + emit[k]
	}
	// Upward beam from the surface: U(ns) = sigma Ts^4.
	up := scr.up
	up[n] = sbSigma * c.Ts * c.Ts * c.Ts * c.Ts
	for k := n - 1; k >= 0; k-- {
		up[k] = up[k+1]*trans[k] + emit[k]
	}
	// Heating from net flux divergence.
	for k := 0; k < n; k++ {
		netTop := up[k] - down[k]
		netBot := up[k+1] - down[k+1]
		heat := -(netTop - netBot) * Gravit / (Cp * c.DP[k]) // K/s
		c.T[k] += dt * heat
	}
	// Shortwave: deposit insolation in the lowest model layer (the
	// gray atmosphere is SW-transparent; the surface flux heats the
	// boundary layer through the surface scheme in a full model — here
	// the bottom layer absorbs it directly, a standard simplification).
	sw := rp.Insolation(c.Lat)
	c.T[n-1] += dt * sw * Gravit / (Cp * c.DP[n-1])
	return up[0]
}
