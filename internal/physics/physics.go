// Package physics is a CAM5-lite column-physics suite: the simplified
// moist physics that stands in for CAM's parameterization package in
// this reproduction (see DESIGN.md's substitution table). It provides
// the same structural role the paper's "physics part" plays — a large
// set of column-independent schemes executed between dynamics steps,
// refactored for the CPE cluster by loop transformation — with real,
// tested process models:
//
//   - gray-atmosphere two-stream radiation (longwave + shortwave),
//   - bulk aerodynamic surface fluxes,
//   - implicit boundary-layer vertical diffusion,
//   - Betts-Miller moist convective adjustment,
//   - Kessler-style large-scale condensation and precipitation,
//   - Held-Suarez forcing as the idealized climate option (Figure 4's
//     climatology validation runs use it).
//
// All schemes operate on a Column (one GLL node's vertical profile) and
// are embarrassingly parallel across columns, matching how CAM physics
// parallelizes over "chunks".
package physics

import "math"

// Thermodynamic constants shared with the dycore (CAM values).
const (
	Rd     = 287.04
	Cp     = 1004.64
	Rv     = 461.5
	Lv     = 2.501e6 // latent heat of vaporization, J/kg
	Gravit = 9.80616
	P0     = 100000.0
	Epsilo = Rd / Rv
)

// Column is one atmospheric column, index 0 = model top. Pressures in
// Pa, temperatures in K, winds in m/s, moisture as specific humidity
// (kg/kg). The physics mutates T, Qv, Qc, Qr, U, V in place.
type Column struct {
	Nlev int
	P    []float64 // midpoint pressure
	DP   []float64 // layer thickness
	T    []float64
	U    []float64
	V    []float64
	Qv   []float64 // water vapor
	Qc   []float64 // cloud condensate
	Qr   []float64 // rain
	Lat  float64   // latitude, radians
	Ts   float64   // surface temperature
	Ps   float64   // surface pressure

	Precip float64 // accumulated surface precipitation, kg/m^2 (diagnostic)

	// scr holds the pooled per-column work arrays the schemes reuse
	// across steps, so a warm column steps without heap allocation.
	// Columns are owned by one worker at a time, so the scratch needs
	// no locking.
	scr *colScratch
}

// colScratch is the per-column scheme workspace: every slice a scheme
// previously allocated per call lives here instead, sized once for the
// column's Nlev. Fields are grouped by the scheme that overwrites them
// fully before reading (so sharing a buffer between schemes of one Step
// would be safe — they get distinct fields anyway for clarity).
type colScratch struct {
	// Radiation: interface optical depths/fluxes (nlev+1), the
	// per-layer transmissivity exp(-dtau), shared by both beams, and the
	// per-layer emission.
	tau, down, up []float64
	trans, emit   []float64
	// PBL: geometry, conductances, masses over dt, heights, dry static
	// energy, the tridiagonal bands, and their one elimination (pivots m
	// and the Thomas algorithm's c' column).
	dz, rho, g, mass, z, s []float64
	ta, tb, tc, tm, tcp    []float64
	// Convection: the moist-adiabat reference profile, its saturation
	// humidity, and the first-guess adjustment tendencies.
	tRef, qsRef, dT, dQ []float64
}

// scratch returns the column's pooled workspace, building it on first
// use (or after a level-count change — columns are normally fixed-size,
// but a reused struct with swapped slices stays correct).
func (c *Column) scratch() *colScratch {
	if c.scr == nil || len(c.scr.emit) != c.Nlev {
		c.scr = newColScratch(c.Nlev)
	}
	return c.scr
}

func newColScratch(n int) *colScratch {
	return &colScratch{
		tau: make([]float64, n+1), down: make([]float64, n+1), up: make([]float64, n+1),
		trans: make([]float64, n), emit: make([]float64, n),
		dz: make([]float64, n), rho: make([]float64, n), g: make([]float64, n),
		mass: make([]float64, n), z: make([]float64, n), s: make([]float64, n),
		ta: make([]float64, n), tb: make([]float64, n), tc: make([]float64, n),
		tm: make([]float64, n), tcp: make([]float64, n),
		tRef: make([]float64, n), qsRef: make([]float64, n),
		dT: make([]float64, n), dQ: make([]float64, n),
	}
}

// NewColumn allocates a column with nlev levels, its scheme scratch
// included: a pool worker's column steps without allocating from its
// first chunk, whichever Run that chunk falls in.
func NewColumn(nlev int) *Column {
	return &Column{
		scr:  newColScratch(nlev),
		Nlev: nlev,
		P:    make([]float64, nlev),
		DP:   make([]float64, nlev),
		T:    make([]float64, nlev),
		U:    make([]float64, nlev),
		V:    make([]float64, nlev),
		Qv:   make([]float64, nlev),
		Qc:   make([]float64, nlev),
		Qr:   make([]float64, nlev),
	}
}

// ESat returns saturation vapor pressure (Pa) over liquid water
// (Bolton's formula, accurate to ~0.1% between -30C and +35C).
func ESat(tk float64) float64 {
	tc := tk - 273.15
	return 611.2 * math.Exp(17.67*tc/(tc+243.5))
}

// QSat returns saturation specific humidity at temperature tk and
// pressure p.
func QSat(tk, p float64) float64 {
	es := ESat(tk)
	if es > 0.5*p {
		es = 0.5 * p // avoid blow-up at very low pressure
	}
	return Epsilo * es / (p - (1-Epsilo)*es)
}

// dqsatdt returns d(qsat)/dT via Clausius-Clapeyron, given
// qs = QSat(tk, p), which every caller already holds.
func dqsatdt(qs, tk float64) float64 {
	return qs * Lv / (Rv * tk * tk)
}
