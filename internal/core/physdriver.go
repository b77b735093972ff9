// The column-physics driver shared by the serial Model and the
// distributed ParallelJob: a work-stealing pool over elements, with the
// reduction merged in fixed element order so the result is bit-identical
// to serial for every worker count and every steal schedule.
//
// Chunk = one element (Np*Np columns). That granularity is coarse enough
// to amortize deque traffic and fine enough that convection triggering
// over one storm-track element cannot serialize a worker's whole range —
// idle workers steal the remaining elements. Each worker owns one pooled
// physics.Column (and each Column owns its scheme scratch), so the
// steady-state step allocates nothing.
//
// Determinism: the pool decides only *which worker* runs an element.
// Every element's columns are stepped in ascending node order by exactly
// one worker, partials land in per-element slots, and the merge folds
// those slots in ascending element order — the same association the
// serial path uses, hence the same bits.
package core

import (
	"math"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/physics"
)

// minElemsPerPhysWorker is the adaptive downshift threshold: a worker
// needs at least this many elements of work before the goroutine and
// steal traffic pays for itself on a toy grid.
const minElemsPerPhysWorker = 2

// resolvePhysWorkers maps a requested worker count (<= 0 = auto) to the
// pool size for a grid of nelems elements, downshifting so no
// configuration runs with less than minElemsPerPhysWorker elements per
// worker (1 worker = the serial fast path).
func resolvePhysWorkers(requested, nelems int) int {
	w := requested
	if w <= 0 {
		w = physics.DefaultStealWorkers()
	}
	if cap := nelems / minElemsPerPhysWorker; w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// physPartial is one element's reduction contribution.
type physPartial struct {
	precip float64 // quadrature-weighted accumulated precipitation
	area   float64 // quadrature weight sum
}

// physStepFn advances the physics of one column (element ei, node n)
// using the worker-owned column buffer, returning its weighted precip
// and weight. Implemented by Model.stepColumn and the rank-local
// equivalent in ParallelJob.
type physStepFn func(col *physics.Column, ei, n int, dt float64) (precipW, area float64)

// physRunner executes a physics step over nelems elements on a steal
// pool and merges the per-element partials deterministically.
type physRunner struct {
	pool  *physics.StealPool
	cols  []*physics.Column // one per worker: scratch never shared
	parts []physPartial     // one slot per element, merged in order
	npsq  int
	dt    float64 // set by run; read by the prebuilt chunk closure
	step  physStepFn
	fn    func(w, ei int) // built once so steady-state runs don't allocate
	hook  func(w, ei int) // test-only chunk-entry hook (chaos injection)
}

// newPhysRunner builds a runner for a grid of nelems elements with npsq
// columns each. requested <= 0 selects the machine default; the count is
// then downshifted for tiny grids (resolvePhysWorkers). The seed only
// rotates the pool's victim-scan order — results are identical for every
// seed, which the determinism sweep exploits.
func newPhysRunner(requested int, seed uint64, nelems, npsq, nlev int, step physStepFn) *physRunner {
	workers := resolvePhysWorkers(requested, nelems)
	r := &physRunner{
		pool:  physics.NewStealPool(workers, seed),
		cols:  make([]*physics.Column, workers),
		parts: make([]physPartial, nelems),
		npsq:  npsq,
		step:  step,
	}
	for w := range r.cols {
		r.cols[w] = physics.NewColumn(nlev)
	}
	r.fn = func(w, ei int) {
		if r.hook != nil {
			r.hook(w, ei)
		}
		col := r.cols[w]
		var ps, as float64
		for n := 0; n < r.npsq; n++ {
			pw, a := r.step(col, ei, n, r.dt)
			ps += pw
			as += a
		}
		r.parts[ei] = physPartial{ps, as}
	}
	return r
}

// workers reports the resolved pool size.
func (r *physRunner) workers() int { return r.pool.Workers() }

// surfaceT is the prescribed SST profile: sst at the equator, cooling
// poleward with cos^2(lat).
func surfaceT(lat, sst, sstDelta float64) float64 {
	c := math.Cos(lat)
	return sst - sstDelta*(1-c*c)
}

// stepOneColumn loads the column at (local element le, node n) of st
// into the worker-owned buffer, steps it through the suite, stores it
// back, and returns the quadrature-weighted precipitation and weight.
// e is the mesh element backing le (global for the serial model, the
// plan's mapping for a rank). This is THE column step — serial model
// and every rank run these exact lines, so backends and worker counts
// cannot diverge here.
func stepOneColumn(suite *physics.Suite, st *dycore.State, e *mesh.Element,
	np, nlev, qsize int, col *physics.Column, le, n int, dt, sst, sstDelta float64) (precipW, area float64) {
	npsq := np * np
	dp, tt, u, v := st.DP[le], st.T[le], st.U[le], st.V[le]
	// The moisture tracers' rows (nil past qsize), resolved once rather
	// than per level.
	var qv, qc, qr []float64
	if qsize > 0 {
		qv = st.QdpAt(le, 0)
	}
	if qsize > 1 {
		qc = st.QdpAt(le, 1)
	}
	if qsize > 2 {
		qr = st.QdpAt(le, 2)
	}

	ps := dycore.PTop
	for k := 0; k < nlev; k++ {
		col.DP[k] = dp[k*npsq+n]
		ps += col.DP[k]
	}
	p := dycore.PTop
	for k := 0; k < nlev; k++ {
		i := k*npsq + n
		col.P[k] = p + col.DP[k]/2
		p += col.DP[k]
		col.T[k] = tt[i]
		col.U[k] = u[i]
		col.V[k] = v[i]
		col.Qv[k], col.Qc[k], col.Qr[k] = 0, 0, 0
		if qv != nil {
			col.Qv[k] = qv[i] / col.DP[k]
		}
		if qc != nil {
			col.Qc[k] = qc[i] / col.DP[k]
		}
		if qr != nil {
			col.Qr[k] = qr[i] / col.DP[k]
		}
	}
	col.Ps = ps
	col.Lat = e.Lat[n]
	col.Ts = surfaceT(e.Lat[n], sst, sstDelta)
	col.Precip = 0

	suite.Step(col, dt)

	for k := 0; k < nlev; k++ {
		i := k*npsq + n
		tt[i] = col.T[k]
		u[i] = col.U[k]
		v[i] = col.V[k]
		if qv != nil {
			qv[i] = col.Qv[k] * col.DP[k]
		}
		if qc != nil {
			qc[i] = col.Qc[k] * col.DP[k]
		}
		if qr != nil {
			qr[i] = col.Qr[k] * col.DP[k]
		}
	}
	return col.Precip * e.SphereMP[n], e.SphereMP[n]
}

// run steps the physics of every element and returns the fixed-order
// merged (weighted precip, weight) totals. The division into a mean is
// the caller's business: the serial Model divides locally, the parallel
// job first reduces partials canonically across ranks.
func (r *physRunner) run(dt float64) (precip, area float64) {
	r.dt = dt
	r.pool.Run(len(r.parts), r.fn)
	for i := range r.parts {
		precip += r.parts[i].precip
		area += r.parts[i].area
	}
	return precip, area
}
