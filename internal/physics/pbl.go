package physics

import "math"

// Boundary-layer vertical diffusion with bulk surface fluxes, solved
// implicitly (backward Euler) with the Thomas tridiagonal algorithm —
// the numerical pattern of CAM's vertical_diffusion module.

// PBLParams configures the diffusion and surface exchange.
type PBLParams struct {
	KMax    float64 // peak eddy diffusivity, m^2/s
	PBLTop  float64 // diffusivity decays above this pressure, Pa
	Cd      float64 // bulk drag/exchange coefficient
	MinWind float64 // gustiness floor for the bulk formulas, m/s
}

// DefaultPBLParams returns typical values.
func DefaultPBLParams() PBLParams {
	return PBLParams{KMax: 30, PBLTop: 85000, Cd: 1.2e-3, MinWind: 1}
}

// factorTridiag runs the forward elimination of the Thomas algorithm on
// the tridiagonal matrix (a: sub, b: diag, c: super) once, independent
// of any right-hand side: m[i] is row i's pivot and cp[i] = c[i]/m[i]
// the eliminated super-diagonal. a[0] and c[n-1] are ignored.
func factorTridiag(a, b, c, m, cp []float64) {
	n := len(b)
	m[0] = b[0]
	cp[0] = c[0] / b[0]
	for i := 1; i < n; i++ {
		m[i] = b[i] - a[i]*cp[i-1]
		cp[i] = c[i] / m[i]
	}
}

// solveFactored4 solves the factored system for four right-hand sides
// in place, in one interleaved pass so the four division chains of the
// substitution overlap. Each x gets exactly the Thomas algorithm's
// operations, so the result is bit-identical to four separate solves.
func solveFactored4(a, m, cp, x0, x1, x2, x3 []float64) {
	n := len(m)
	a, cp = a[:n], cp[:n]
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	x0[0] /= m[0]
	x1[0] /= m[0]
	x2[0] /= m[0]
	x3[0] /= m[0]
	for i := 1; i < n; i++ {
		ai, mi := a[i], m[i]
		x0[i] = (x0[i] - ai*x0[i-1]) / mi
		x1[i] = (x1[i] - ai*x1[i-1]) / mi
		x2[i] = (x2[i] - ai*x2[i-1]) / mi
		x3[i] = (x3[i] - ai*x3[i-1]) / mi
	}
	for i := n - 2; i >= 0; i-- {
		ci := cp[i]
		x0[i] -= ci * x0[i+1]
		x1[i] -= ci * x1[i+1]
		x2[i] -= ci * x2[i+1]
		x3[i] -= ci * x3[i+1]
	}
}

// eddyK returns the diffusivity profile at pressure p: KMax below
// PBLTop, decaying quadratically to zero one scale height above it.
func (pp PBLParams) eddyK(p, ps float64) float64 {
	top := pp.PBLTop * ps / P0
	if p >= top {
		return pp.KMax
	}
	frac := p / top
	return pp.KMax * frac * frac
}

// PBLDiffusion applies one implicit vertical-diffusion step to T, Qv, U
// and V with bulk surface fluxes as the bottom boundary condition.
// Returns the surface sensible and latent heat fluxes (W/m^2,
// diagnostics).
func PBLDiffusion(c *Column, pp PBLParams, dt float64) (shf, lhf float64) {
	n := c.Nlev
	if n < 2 {
		return 0, 0
	}
	scr := c.scratch()
	// Geometry: layer thickness in meters and interface spacing.
	dz := scr.dz
	rho := scr.rho
	for k := 0; k < n; k++ {
		rho[k] = c.P[k] / (Rd * c.T[k])
		dz[k] = c.DP[k] / (Gravit * rho[k])
	}
	// Interface diffusive conductance g[k] couples layers k-1 and k:
	// g = rho_int * K / dz_int (kg/m^2/s after dividing by dz later).
	g := scr.g // g[0] unused
	for k := 1; k < n; k++ {
		rhoInt := (rho[k-1] + rho[k]) / 2
		dzInt := (dz[k-1] + dz[k]) / 2
		pInt := (c.P[k-1] + c.P[k]) / 2
		g[k] = rhoInt * pp.eddyK(pInt, c.Ps) / dzInt
	}
	// Surface exchange coefficients.
	wind := math.Hypot(c.U[n-1], c.V[n-1])
	if wind < pp.MinWind {
		wind = pp.MinWind
	}
	gSfc := rho[n-1] * pp.Cd * wind // kg/m^2/s

	// The implicit operator is the same matrix for every diffused field
	// (layer mass over dt on the diagonal, the conductances coupling
	// neighbours, the surface exchange on the bottom row): build and
	// eliminate it once.
	md := scr.mass // layer mass (kg/m^2) over dt
	a, b, cc := scr.ta, scr.tb, scr.tc
	for k := 0; k < n; k++ {
		md[k] = c.DP[k] / Gravit / dt
		a[k], cc[k] = 0, 0
		b[k] = md[k]
		if k > 0 {
			a[k] = -g[k]
			b[k] += g[k]
		}
		if k < n-1 {
			cc[k] = -g[k+1]
			b[k] += g[k+1]
		}
	}
	b[n-1] += gSfc
	factorTridiag(a, b, cc, scr.tm, scr.tcp)

	// Heat diffuses as dry static energy s = cp*T + g*z, not raw
	// temperature — diffusing T would mix the adiabatic lapse rate
	// itself downward. Heights come from the hydrostatic integral of
	// the current profile and are held fixed across the implicit solve
	// (the standard approximation).
	z := scr.z
	zInt := 0.0
	for k := n - 1; k >= 0; k-- {
		half := c.DP[k] / (2 * Gravit * rho[k])
		z[k] = zInt + half
		zInt += 2 * half
	}
	s := scr.s
	for k := 0; k < n; k++ {
		s[k] = Cp*c.T[k] + Gravit*z[k]
	}
	s1Before := s[n-1]
	q1Before := c.Qv[n-1]
	qsSfc := QSat(c.Ts, c.Ps)

	// Right-hand sides, formed in place: the old values times mass/dt,
	// plus each field's surface exchange — surface DSE at z=0, the
	// saturated ocean surface, and drag pulling the wind to zero.
	for k := 0; k < n; k++ {
		s[k] = md[k] * s[k]
		c.Qv[k] = md[k] * c.Qv[k]
		c.U[k] = md[k] * c.U[k]
		c.V[k] = md[k] * c.V[k]
	}
	// (The zero-wind terms stay explicit: adding gSfc*0 is what rounds a
	// -0 right-hand side to +0, as the per-field solve did.)
	const uSfc, vSfc = 0.0, 0.0
	s[n-1] += gSfc * (Cp * c.Ts)
	c.Qv[n-1] += gSfc * qsSfc
	c.U[n-1] += gSfc * uSfc
	c.V[n-1] += gSfc * vSfc
	solveFactored4(a, scr.tm, scr.tcp, s, c.Qv, c.U, c.V)
	for k := 0; k < n; k++ {
		c.T[k] = (s[k] - Gravit*z[k]) / Cp
	}

	shf = gSfc * (Cp*c.Ts - (s1Before+s[n-1])/2)
	lhf = gSfc * Lv * (qsSfc - (q1Before+c.Qv[n-1])/2)
	return shf, lhf
}
