// The column-physics driver shared by the serial Model and the
// distributed ParallelJob: a work-stealing pool over elements that steps
// each unique GLL column once, with the reduction merged in fixed
// element order so the result is bit-identical to serial for every
// worker count and every steal schedule.
//
// Chunk = one element (Np*Np columns). That granularity is coarse enough
// to amortize deque traffic and fine enough that convection triggering
// over one storm-track element cannot serialize a worker's whole range —
// idle workers steal the remaining elements. Each worker owns one pooled
// physics.Column (and each Column owns its scheme scratch), so the
// steady-state step allocates nothing.
//
// Every column once: a GLL node on an element edge has one copy per
// element that holds it, and after the DSS those copies hold the same
// bits. The runner's column map, built once per partition, names each
// shared node's owner (its first local copy in mesh.NodeElems order).
// Before the pool runs, a duplicate whose inputs are bit-equal to its
// owner's is marked to follow it; the pool skips followers, and after
// it drains each follower receives its owner's outputs. Because a
// column's step reads nothing but those inputs and its latitude, a
// follower ends with exactly the bits stepping it would have produced.
//
// Determinism: the pool decides only *which worker* runs an element.
// Every element's stepped columns run in ascending node order by exactly
// one worker, each column's precipitation lands in its own slot, and the
// merge folds those slots per element in node order and then in
// ascending element order — the same association the serial path uses,
// hence the same bits.
package core

import (
	"math"

	"swcam/internal/dycore"
	"swcam/internal/halo"
	"swcam/internal/mesh"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

// minElemsPerPhysWorker is the adaptive downshift threshold: a worker
// needs at least this many elements of work before the goroutine and
// steal traffic pays for itself on a toy grid.
const minElemsPerPhysWorker = 2

// moistTracers is how many leading tracers the column step reads and
// writes (vapor, cloud, rain); tracers past them are untouched.
const moistTracers = 3

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

// physColumns describes the columns a runner steps: the mesh element of
// each local slot, every shared GLL node's local copies in
// mesh.NodeElems order, the state shape, and the prescribed surface.
type physColumns struct {
	elems           []*mesh.Element
	shared          [][]halo.LocalRef
	np, nlev, qsize int
	sst, sstDelta   float64
}

// colDup is one duplicate column and the owner it may follow.
type colDup struct{ copy, owner halo.LocalRef }

// physRunner executes a physics step over the local elements on a steal
// pool and merges the per-element partials deterministically.
type physRunner struct {
	physColumns
	suite *physics.Suite
	pool  *physics.StealPool
	cols  []*physics.Column // one per worker: scratch never shared
	npsq  int

	// The column map: every duplicate whose latitude bits equal its
	// owner's, in shared-node order. follow and precip are indexed by
	// column le*npsq+n and rewritten every step.
	dups   []colDup
	follow []bool
	precip []float64 // each column's accumulated precipitation this step

	parts []physPartial // one slot per element, merged in order
	st    *dycore.State // set by run; read by the prebuilt chunk closure
	dt    float64
	fn    func(w, le int) // built once so steady-state runs don't allocate
	hook  func(w, le int) // test-only chunk-entry hook (chaos injection)

	obsFollowed *obs.Counter // physics.columns.followed (nil = off)
}

// newPhysRunner builds a runner over pc's columns. requested <= 0
// selects the machine default; the count is then downshifted for tiny
// grids (resolvePhysWorkers). The seed only rotates the pool's
// victim-scan order — results are identical for every seed, which the
// determinism sweep exploits.
func newPhysRunner(requested int, seed uint64, suite *physics.Suite, pc physColumns) *physRunner {
	nelems := len(pc.elems)
	npsq := pc.np * pc.np
	workers := resolvePhysWorkers(requested, nelems)
	r := &physRunner{
		physColumns: pc,
		suite:       suite,
		pool:        physics.NewStealPool(workers, seed),
		cols:        make([]*physics.Column, workers),
		npsq:        npsq,
		follow:      make([]bool, nelems*npsq),
		precip:      make([]float64, nelems*npsq),
		parts:       make([]physPartial, nelems),
	}
	for w := range r.cols {
		r.cols[w] = physics.NewColumn(pc.nlev)
	}
	// A copy whose latitude differs from its owner's in any bit would
	// see a different surface and radiation, so it never follows.
	for _, refs := range pc.shared {
		o := refs[0]
		lat := math.Float64bits(pc.elems[o.Elem].Lat[o.Node])
		for _, c := range refs[1:] {
			if math.Float64bits(pc.elems[c.Elem].Lat[c.Node]) == lat {
				r.dups = append(r.dups, colDup{copy: c, owner: o})
			}
		}
	}
	r.fn = func(w, le int) {
		if r.hook != nil {
			r.hook(w, le)
		}
		col := r.cols[w]
		c0 := le * r.npsq
		for n := 0; n < r.npsq; n++ {
			if !r.follow[c0+n] {
				r.precip[c0+n] = r.stepColumn(col, le, n)
			}
		}
	}
	return r
}

// modelColumns is the serial Model's column description: every element
// is local, so the shared copies are mesh.NodeElems itself.
func modelColumns(m *mesh.Mesh, cfg Config) physColumns {
	var shared [][]halo.LocalRef
	for _, refs := range m.NodeElems {
		if len(refs) < 2 {
			continue
		}
		local := make([]halo.LocalRef, len(refs))
		for i, r := range refs {
			local[i] = halo.LocalRef{Elem: r.Elem, Node: r.Idx}
		}
		shared = append(shared, local)
	}
	d := cfg.Dycore
	return physColumns{elems: m.Elements, shared: shared,
		np: d.Np, nlev: d.Nlev, qsize: d.Qsize, sst: cfg.SST, sstDelta: cfg.SSTDelta}
}

// workers reports the resolved pool size.
func (r *physRunner) workers() int { return r.pool.Workers() }

// instrument wires the suite's and the pool's counters, and
// physics.columns.followed beside the suite's physics.columns, into the
// registry. A nil registry detaches them.
func (r *physRunner) instrument(reg *obs.Registry) {
	r.suite.Instrument(reg)
	r.pool.Instrument(reg)
	r.obsFollowed = reg.Counter("physics.columns.followed")
}

// surfaceT is the prescribed SST profile: sst at the equator, cooling
// poleward with cos^2(lat).
func surfaceT(lat, sst, sstDelta float64) float64 {
	c := math.Cos(lat)
	return sst - sstDelta*(1-c*c)
}

// stepColumn loads the column at (local element le, node n) of the
// state into the worker-owned buffer, steps it through the suite,
// stores it back, and returns its accumulated precipitation. This is
// THE column step — serial model and every rank run these exact lines,
// so backends and worker counts cannot diverge here.
func (r *physRunner) stepColumn(col *physics.Column, le, n int) float64 {
	st, nlev, npsq := r.st, r.nlev, r.npsq
	dp, tt, u, v := st.DP[le], st.T[le], st.U[le], st.V[le]
	// The moisture tracers' rows (nil past qsize), resolved once rather
	// than per level.
	var qv, qc, qr []float64
	if r.qsize > 0 {
		qv = st.QdpAt(le, 0)
	}
	if r.qsize > 1 {
		qc = st.QdpAt(le, 1)
	}
	if r.qsize > 2 {
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
	lat := r.elems[le].Lat[n]
	col.Ps = ps
	col.Lat = lat
	col.Ts = surfaceT(lat, r.sst, r.sstDelta)
	col.Precip = 0

	r.suite.Step(col, r.dt)

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
	return col.Precip
}

// moistRows is the prefix of an element's Qdp holding the tracers the
// column step reads and writes.
func (r *physRunner) moistRows(st *dycore.State, le int) []float64 {
	return st.Qdp[le][:min(r.qsize, moistTracers)*r.nlev*r.npsq]
}

// sameColumn reports whether node a of x and node b of y hold the same
// bits in every npsq-strided row.
func sameColumn(x []float64, a int, y []float64, b, npsq int) bool {
	for i := 0; i < len(x); i += npsq {
		if math.Float64bits(x[i+a]) != math.Float64bits(y[i+b]) {
			return false
		}
	}
	return true
}

// copyColumn writes node b of src into node a of dst in every
// npsq-strided row.
func copyColumn(dst []float64, a int, src []float64, b, npsq int) {
	for i := 0; i < len(dst); i += npsq {
		dst[i+a] = src[i+b]
	}
}

// markFollowers decides, from this step's inputs, which duplicates
// follow their owner: only those whose DP, T, U, V and moisture Qdp
// equal the owner's in every bit at every level. Any other copy — say,
// one a resident-state flip reached that the scrubber has not caught
// yet — is stepped on its own, so the result is exact for every input.
// It returns the number of followers.
func (r *physRunner) markFollowers() int64 {
	st, npsq := r.st, r.npsq
	var n int64
	for _, d := range r.dups {
		c, o := d.copy, d.owner
		f := sameColumn(st.DP[c.Elem], c.Node, st.DP[o.Elem], o.Node, npsq) &&
			sameColumn(st.T[c.Elem], c.Node, st.T[o.Elem], o.Node, npsq) &&
			sameColumn(st.U[c.Elem], c.Node, st.U[o.Elem], o.Node, npsq) &&
			sameColumn(st.V[c.Elem], c.Node, st.V[o.Elem], o.Node, npsq) &&
			sameColumn(r.moistRows(st, c.Elem), c.Node, r.moistRows(st, o.Elem), o.Node, npsq)
		r.follow[c.Elem*npsq+c.Node] = f
		if f {
			n++
		}
	}
	return n
}

// copyFollowers gives every follower its owner's outputs: T, U, V, the
// moisture Qdp rows and the precipitation.
func (r *physRunner) copyFollowers() {
	st, npsq := r.st, r.npsq
	for _, d := range r.dups {
		c, o := d.copy, d.owner
		ci := c.Elem*npsq + c.Node
		if !r.follow[ci] {
			continue
		}
		copyColumn(st.T[c.Elem], c.Node, st.T[o.Elem], o.Node, npsq)
		copyColumn(st.U[c.Elem], c.Node, st.U[o.Elem], o.Node, npsq)
		copyColumn(st.V[c.Elem], c.Node, st.V[o.Elem], o.Node, npsq)
		copyColumn(r.moistRows(st, c.Elem), c.Node, r.moistRows(st, o.Elem), o.Node, npsq)
		r.precip[ci] = r.precip[o.Elem*npsq+o.Node]
	}
}

// run steps the physics of every column of st and returns the
// fixed-order merged (weighted precip, weight) totals. The division into
// a mean is the caller's business: the serial Model divides locally, the
// parallel job first reduces partials canonically across ranks.
func (r *physRunner) run(st *dycore.State, dt float64) (precip, area float64) {
	r.st, r.dt = st, dt
	r.obsFollowed.Add(r.markFollowers())
	r.pool.Run(len(r.parts), r.fn)
	r.copyFollowers()
	r.st = nil
	npsq := r.npsq
	for le, e := range r.elems {
		var ps, as float64
		for n, w := range e.SphereMP {
			ps += r.precip[le*npsq+n] * w
			as += w
		}
		r.parts[le] = physPartial{ps, as}
		precip += ps
		area += as
	}
	return precip, area
}
