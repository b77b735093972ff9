package physics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The column-physics oracle: verbatim copies of the moist schemes as
// they stood before the "every column quantity once" rewrite (DESIGN
// "The column layer"), which computed the parcel adiabat twice per
// convection step, QSat again inside DQSatDT, exp(-dtau) twice per
// level and eliminated the PBL matrix once per field. The only edits
// are the oracle* names and a private scratch, so the oracle keeps
// working whatever the live colScratch looks like. The live schemes
// must reproduce these bit for bit (TestSuiteStepMatchesOracle).

// oracleScratch is the pre-rewrite colScratch, allocated per call.
type oracleScratch struct {
	tau, down, up          []float64
	planck                 []float64
	dz, rho, g, mass, z, s []float64
	ta, tb, tc, td, tcp    []float64
	tRef, dT, dQ           []float64
}

func newOracleScratch(n int) *oracleScratch {
	return &oracleScratch{
		tau: make([]float64, n+1), down: make([]float64, n+1), up: make([]float64, n+1),
		planck: make([]float64, n),
		dz:     make([]float64, n), rho: make([]float64, n), g: make([]float64, n),
		mass: make([]float64, n), z: make([]float64, n), s: make([]float64, n),
		ta: make([]float64, n), tb: make([]float64, n), tc: make([]float64, n),
		td: make([]float64, n), tcp: make([]float64, n),
		tRef: make([]float64, n), dT: make([]float64, n), dQ: make([]float64, n),
	}
}

func oracleMoistAdiabatFrom(c *Column, k0 int, tRef []float64) {
	tp := c.T[k0]
	qp := c.Qv[k0]
	tRef[k0] = tp
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
			gamma := Lv / Cp * DQSatDT(tp, c.P[k])
			dTl := Lv / Cp * excess / (1 + gamma)
			tp += dTl
			qp = QSat(tp, c.P[k])
		}
		tRef[k] = tp
	}
}

func oracleCAPE(c *Column, scr *oracleScratch) float64 {
	n := c.Nlev
	tRef := scr.tRef
	oracleMoistAdiabatFrom(c, n-1, tRef)
	cape := 0.0
	for k := n - 2; k >= 0; k-- {
		buoy := (tRef[k] - c.T[k]) / c.T[k]
		if buoy > 0 {
			cape += Rd * (tRef[k] - c.T[k]) * math.Log(c.P[k+1]/c.P[k])
		}
	}
	return cape
}

func oracleBettsMiller(c *Column, cp ConvParams, dt float64, scr *oracleScratch) float64 {
	n := c.Nlev
	if oracleCAPE(c, scr) < cp.MinCAPE {
		return 0
	}
	tRef := scr.tRef
	oracleMoistAdiabatFrom(c, n-1, tRef)

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
		qRef := cp.RHRef * QSat(tRef[k], c.P[k])
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

func oracleSaturationAdjust(c *Column, k int) {
	qs := QSat(c.T[k], c.P[k])
	gamma := Lv / Cp * DQSatDT(c.T[k], c.P[k])
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

func oracleKessler(c *Column, mp MicroParams, dt float64) float64 {
	n := c.Nlev
	for k := 0; k < n; k++ {
		oracleSaturationAdjust(c, k)

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

func oracleLwTau(rp RadParams, lat, s float64) float64 {
	tau0 := rp.TauEq + (rp.TauPole-rp.TauEq)*math.Sin(lat)*math.Sin(lat)
	return tau0 * (rp.LinFrac*s + (1-rp.LinFrac)*s*s*s*s)
}

func oracleInsolation(rp RadParams, lat float64) float64 {
	sl := math.Sin(lat)
	return rp.Solar * (1 + rp.SolarDel/4*(1-3*sl*sl)) // P2-weighted annual mean
}

func oracleGrayRadiation(c *Column, rp RadParams, dt float64, scr *oracleScratch) (olr float64) {
	n := c.Nlev
	// Interface optical depths.
	tau := scr.tau
	tau[0] = 0
	pInt := 0.0
	for k := 0; k < n; k++ {
		pInt += c.DP[k]
		tau[k+1] = oracleLwTau(rp, c.Lat, pInt/c.Ps)
	}
	// Planck source per layer.
	b := scr.planck
	for k := 0; k < n; k++ {
		b[k] = sbSigma * c.T[k] * c.T[k] * c.T[k] * c.T[k]
	}
	// Downward beam: D(0) = 0; dD/dtau = B - D.
	down := scr.down
	down[0] = 0
	for k := 0; k < n; k++ {
		dtau := tau[k+1] - tau[k]
		e := math.Exp(-dtau)
		down[k+1] = down[k]*e + b[k]*(1-e)
	}
	// Upward beam from the surface: U(ns) = sigma Ts^4.
	up := scr.up
	up[n] = sbSigma * c.Ts * c.Ts * c.Ts * c.Ts
	for k := n - 1; k >= 0; k-- {
		dtau := tau[k+1] - tau[k]
		e := math.Exp(-dtau)
		up[k] = up[k+1]*e + b[k]*(1-e)
	}
	// Heating from net flux divergence.
	for k := 0; k < n; k++ {
		netTop := up[k] - down[k]
		netBot := up[k+1] - down[k+1]
		heat := -(netTop - netBot) * Gravit / (Cp * c.DP[k]) // K/s
		c.T[k] += dt * heat
	}
	sw := oracleInsolation(rp, c.Lat)
	c.T[n-1] += dt * sw * Gravit / (Cp * c.DP[n-1])
	return up[0]
}

func oracleSolveTridiagCP(a, b, c, d, cp []float64) {
	n := len(b)
	cp[0] = c[0] / b[0]
	d[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		m := b[i] - a[i]*cp[i-1]
		cp[i] = c[i] / m
		d[i] = (d[i] - a[i]*d[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
}

func oraclePBLDiffusion(c *Column, pp PBLParams, dt float64, scr *oracleScratch) (shf, lhf float64) {
	n := c.Nlev
	if n < 2 {
		return 0, 0
	}
	// Geometry: layer thickness in meters and interface spacing.
	dz := scr.dz
	rho := scr.rho
	for k := 0; k < n; k++ {
		rho[k] = c.P[k] / (Rd * c.T[k])
		dz[k] = c.DP[k] / (Gravit * rho[k])
	}
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

	// Mass per layer (kg/m^2).
	mass := scr.mass
	for k := 0; k < n; k++ {
		mass[k] = c.DP[k] / Gravit
	}

	solve := func(x []float64, sfcValue float64, sfcCoupled bool) {
		a, b, cc, d := scr.ta, scr.tb, scr.tc, scr.td
		for k := 0; k < n; k++ {
			a[k], cc[k] = 0, 0
			b[k] = mass[k] / dt
			d[k] = mass[k] / dt * x[k]
			if k > 0 {
				a[k] = -g[k]
				b[k] += g[k]
			}
			if k < n-1 {
				cc[k] = -g[k+1]
				b[k] += g[k+1]
			}
		}
		if sfcCoupled {
			b[n-1] += gSfc
			d[n-1] += gSfc * sfcValue
		}
		oracleSolveTridiagCP(a, b, cc, d, scr.tcp)
		copy(x, d)
	}

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
	solve(s, Cp*c.Ts, true) // surface DSE at z=0
	for k := 0; k < n; k++ {
		c.T[k] = (s[k] - Gravit*z[k]) / Cp
	}
	solve(c.Qv, QSat(c.Ts, c.Ps), true) // saturated ocean surface
	solve(c.U, 0, true)                 // surface drag pulls wind to zero
	solve(c.V, 0, true)

	shf = gSfc * (Cp*c.Ts - (s1Before+s[n-1])/2)
	lhf = gSfc * Lv * (QSat(c.Ts, c.Ps) - (q1Before+c.Qv[n-1])/2)
	return shf, lhf
}

// oracleSuiteStep is Suite.Step's Moist branch over the oracle schemes.
func oracleSuiteStep(s *Suite, c *Column, dt float64) Diag {
	scr := newOracleScratch(c.Nlev)
	var d Diag
	d.OLR = oracleGrayRadiation(c, s.Rad, dt, scr)
	d.SHF, d.LHF = oraclePBLDiffusion(c, s.PBL, dt, scr)
	d.PrecC = oracleBettsMiller(c, s.Conv, dt, scr)
	d.PrecL = oracleKessler(c, s.Micro, dt)
	return d
}

// Test-only helpers whose last non-test caller the rewrite removed.

// SolveTridiag solves the tridiagonal system (a: sub, b: diag, c: super)
// x = d in place with the Thomas algorithm, allocating its c' column;
// a[0] and c[n-1] are ignored. It is the reference the factored PBL
// elimination is checked against.
func SolveTridiag(a, b, c, d []float64) {
	oracleSolveTridiagCP(a, b, c, d, make([]float64, len(b)))
}

// DQSatDT returns d(qsat)/dT via Clausius-Clapeyron, recomputing QSat.
func DQSatDT(tk, p float64) float64 {
	return QSat(tk, p) * Lv / (Rv * tk * tk)
}

// CAPE is the convective available potential energy of a parcel lifted
// from the lowest model level: the live lift plus capeOf.
func CAPE(c *Column) float64 {
	scr := c.scratch()
	moistAdiabatFrom(c, c.Nlev-1, scr.tRef, scr.qsRef)
	return capeOf(c, scr.tRef)
}

// sweepColumn builds one seeded column of the oracle sweep. kind 0 is a
// stable, dry, near-isothermal column; kind 1 a moist troposphere with
// supersaturated and subsaturated levels; kind 2 the same with a warm,
// near-saturated boundary layer that trips the convection trigger. The
// model top is drawn down to 50 Pa, where QSat clips es at 0.5*p.
func sweepColumn(rng *rand.Rand, nlev, kind int) *Column {
	c := NewColumn(nlev)
	c.Lat = (rng.Float64() - 0.5) * math.Pi
	c.Ps = 95000 + 10000*rng.Float64()
	// Quadratically stretched levels, thin at the top like a hybrid grid.
	pTop := []float64{50, 200, 2000, 10000}[rng.Intn(4)]
	p := pTop
	for k := 0; k < nlev; k++ {
		sig := float64(k+1) / float64(nlev)
		next := pTop + (c.Ps-pTop)*sig*sig
		c.DP[k] = next - p
		c.P[k] = p + c.DP[k]/2
		p = next
	}
	for k := 0; k < nlev; k++ {
		frac := c.P[k] / c.Ps
		c.U[k] = 20 * rng.NormFloat64()
		c.V[k] = 10 * rng.NormFloat64()
		switch kind {
		case 0:
			c.T[k] = 255 + 3*rng.NormFloat64()
			c.Qv[k] = 1e-5 * rng.Float64()
		default:
			c.T[k] = 200 + 95*math.Pow(frac, 0.19) + 2*rng.NormFloat64()
			rh := 0.2 + 1.1*rng.Float64()
			c.Qv[k] = rh * QSat(c.T[k], c.P[k])
			if rng.Intn(3) == 0 {
				c.Qc[k] = 1e-3 * rng.Float64()
			}
			if rng.Intn(4) == 0 {
				c.Qr[k] = 1e-3 * rng.Float64()
			}
		}
	}
	if nlev > 2 && rng.Intn(5) == 0 {
		c.T[0] = 285 // warm top: es far above 0.5*p
	}
	c.Ts = c.T[nlev-1] + 10*rng.Float64() - 3
	if kind == 2 {
		n := nlev - 1
		c.T[n] += 6 + 4*rng.Float64()
		c.Ts = c.T[n] + 2
		c.Qv[n] = (0.9 + 0.1*rng.Float64()) * QSat(c.T[n], c.P[n])
	}
	if rng.Intn(6) == 0 {
		c.U[nlev-1], c.V[nlev-1] = 0, 0 // gustiness floor
	}
	return c
}

func cloneColumn(c *Column) *Column {
	d := NewColumn(c.Nlev)
	copy(d.P, c.P)
	copy(d.DP, c.DP)
	copy(d.T, c.T)
	copy(d.U, c.U)
	copy(d.V, c.V)
	copy(d.Qv, c.Qv)
	copy(d.Qc, c.Qc)
	copy(d.Qr, c.Qr)
	d.Lat, d.Ts, d.Ps, d.Precip = c.Lat, c.Ts, c.Ps, c.Precip
	return d
}

// sameBits reports whether two float64s have identical bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSuiteStepMatchesOracle drives the live moist suite and the oracle
// over a seeded sweep of columns, three steps each so later steps see
// evolved (cloudy, rained-out) profiles, and demands bit-identical T,
// Qv, Qc, Qr, U, V, Precip and every Diag field. Coverage counters make
// sure the sweep actually crossed each branch the rewrite touched.
func TestSuiteStepMatchesOracle(t *testing.T) {
	const dt = 1800.0
	s := NewMoistSuite()
	rng := rand.New(rand.NewSource(20261015))
	var triggered, stable, saturated, dry, clipped int
	for _, nlev := range []int{2, 8, 16, 30} {
		for trial := 0; trial < 60; trial++ {
			kind := trial % 3
			live := sweepColumn(rng, nlev, kind)
			ref := cloneColumn(live)
			for k := 0; k < nlev; k++ {
				if ESat(live.T[k]) > 0.5*live.P[k] {
					clipped++
				}
				if live.Qv[k] > QSat(live.T[k], live.P[k]) {
					saturated++
				} else {
					dry++
				}
			}
			for step := 0; step < 3; step++ {
				if oracleCAPE(ref, newOracleScratch(nlev)) >= s.Conv.MinCAPE {
					triggered++
				} else {
					stable++
				}
				got := s.Step(live, dt)
				want := oracleSuiteStep(s, ref, dt)
				where := func() string { return fmt.Sprintf("nlev %d trial %d step %d", nlev, trial, step) }
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"OLR", got.OLR, want.OLR}, {"SHF", got.SHF, want.SHF}, {"LHF", got.LHF, want.LHF},
					{"PrecC", got.PrecC, want.PrecC}, {"PrecL", got.PrecL, want.PrecL},
					{"Precip", live.Precip, ref.Precip},
				} {
					if !sameBits(f.got, f.want) {
						t.Fatalf("%s: %s = %v, oracle %v", where(), f.name, f.got, f.want)
					}
				}
				for _, f := range []struct {
					name      string
					got, want []float64
				}{
					{"T", live.T, ref.T}, {"Qv", live.Qv, ref.Qv}, {"Qc", live.Qc, ref.Qc},
					{"Qr", live.Qr, ref.Qr}, {"U", live.U, ref.U}, {"V", live.V, ref.V},
				} {
					for k := range f.got {
						if !sameBits(f.got[k], f.want[k]) {
							t.Fatalf("%s: %s[%d] = %v, oracle %v", where(), f.name, k, f.got[k], f.want[k])
						}
					}
				}
			}
		}
	}
	t.Logf("sweep: %d triggered / %d stable convection steps, %d saturated / %d dry levels, %d clipped",
		triggered, stable, saturated, dry, clipped)
	if triggered == 0 || stable == 0 || saturated == 0 || dry == 0 || clipped == 0 {
		t.Fatalf("sweep missed a branch: triggered %d stable %d saturated %d dry %d clipped %d",
			triggered, stable, saturated, dry, clipped)
	}
}

// The factored elimination against the allocating Thomas reference:
// one factorisation, four right-hand sides, bit-identical solutions.
func TestFactoredTridiagMatchesThomas(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = -rng.Float64()
			c[i] = -rng.Float64()
			b[i] = 1 + rng.Float64() - a[i] - c[i]
		}
		var rhs, want [4][]float64
		for f := range rhs {
			rhs[f] = make([]float64, n)
			for i := range rhs[f] {
				rhs[f][i] = rng.NormFloat64()
			}
			want[f] = append([]float64(nil), rhs[f]...)
			SolveTridiag(a, b, c, want[f])
		}
		m, cp := make([]float64, n), make([]float64, n)
		factorTridiag(a, b, c, m, cp)
		solveFactored4(a, m, cp, rhs[0], rhs[1], rhs[2], rhs[3])
		for f := range rhs {
			for i := range rhs[f] {
				if !sameBits(rhs[f][i], want[f][i]) {
					t.Fatalf("trial %d rhs %d: x[%d] = %v, Thomas %v", trial, f, i, rhs[f][i], want[f][i])
				}
			}
		}
	}
}
