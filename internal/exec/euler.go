package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// eulerStep dispatches the euler_step kernel over the selected element
// subset; the exported, instrumented entry points are in instrument.go.
func (en *Engine) eulerStep(sub Subset, b Backend, st *dycore.State, dt float64) Cost {
	en.beginLaunch(sub)
	sel := en.sel(sub)
	switch b {
	case Intel:
		return en.eulerSerial(sub, sel, st, dt)
	case OpenACC:
		return en.eulerOpenACC(sub, sel, st, dt)
	case Athread:
		return en.eulerAthread(sub, sel, st, dt)
	}
	panic("exec: unknown backend")
}

// eulerSerial is the reference path: the dycore element kernel on one
// conventional core, tiled across the worker pool.
func (en *Engine) eulerSerial(sub Subset, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	flops, bytes := en.launch(sel, en.bodies.euler, launchArgs{cur: st, dt: dt})
	return en.serialSplit(sub.Phase, flops, bytes)
}

// eulerTile is eulerSerial's tile body.
func (en *Engine) eulerTile(w *dynWorker, slots []int, p *serialPartial) {
	st := en.args.cur
	for _, le := range slots {
		e := en.element(le)
		for q := 0; q < en.Qsize; q++ {
			qdp := st.QdpAt(le, q)
			dycore.EulerStepElem(e, en.M.DerivFlat, en.Np, en.Nlev,
				st.U[le], st.V[le], qdp, qdp, en.args.dt, w.flxU, w.flxV, w.div, w.gv1, w.gv2)
		}
		p.flops += eulerStageFlops(en.Np, en.Nlev) * int64(en.Qsize)
		p.bytes += eulerBytes(en.Np, en.Nlev, en.Qsize)
	}
}

// eulerOpenACC is Algorithm 1: the collapse(2) parallelization over
// (element, tracer) pairs the Sunway OpenACC compiler produces. Because
// the copyin sits inside the q loop, every (ie, q) iteration re-reads
// the velocity and metric arrays — the redundant traffic that made
// bandwidth "the inevitable bottleneck" (§7.3). Each element tile covers
// the item range [lo*qsize, hi*qsize) with the global item → CPE
// assignment intact.
func (en *Engine) eulerOpenACC(sub Subset, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	if en.plans.eulerACC == nil {
		en.plans.eulerACC = newEulerLDM(en.Np, en.Nlev)
	}
	en.runCPE(sel, sub.Phase == Close, launchArgs{cur: st, dt: dt, cpe: (*Engine).eulerOpenACCCPE})
	// One parallel-region launch for the whole kernel (the OpenACC
	// runtime launches per directive region; the q loop is collapsed
	// into the same region, and the host-side tiles all simulate
	// portions of that one region).
	return en.collectSplit(OpenACC, sub.Phase)
}

// eulerLDM is the LDM plan of both euler_step CPE lowerings: the
// metric, a block of levels of u, v and one tracer (the whole column
// on OpenACC, the largest row block on Athread), and the flux scratch.
type eulerLDM struct {
	sw.LDMPlan
	deriv, dinv, metdet, u, v, qdp, flxU, flxV, div, gv1, gv2 sw.LDMBuf
}

func newEulerLDM(np, levels int) *eulerLDM {
	npsq := np * np
	l := &eulerLDM{}
	p := &l.LDMPlan
	l.deriv = p.Add("deriv", npsq)
	l.dinv = p.Add("dinv", 4*npsq)
	l.metdet = p.Add("metdet", npsq)
	addBufs(p, levels*npsq, "u v qdp", &l.u, &l.v, &l.qdp)
	addBufs(p, npsq, "flxU flxV div gv1 gv2", &l.flxU, &l.flxV, &l.div, &l.gv1, &l.gv2)
	return l
}

// eulerOpenACCCPE is eulerOpenACC's CPE body: every (element, tracer)
// item copies in everything, Algorithm 1 style.
func (en *Engine) eulerOpenACCCPE(w *dynWorker, c *sw.CPE) {
	np, nlev, qsize := en.Np, en.Nlev, en.Qsize
	npsq := np * np
	st, dt := en.args.cur, en.args.dt
	l, ldm := en.plans.eulerACC, c.LDM
	ldm.Load(&l.LDMPlan)
	deriv, dinv, metdet := ldm.View(l.deriv), ldm.View(l.dinv), ldm.View(l.metdet)
	uT, vT, qT := ldm.View(l.u), ldm.View(l.v), ldm.View(l.qdp)
	flxU, flxV, div, gv1, gv2 := ldm.View(l.flxU), ldm.View(l.flxV), ldm.View(l.div), ldm.View(l.gv1), ldm.View(l.gv2)
	var op dycore.Operators
	// Per-element restart keeps the global (element, tracer) -> CPE
	// assignment and per-CPE item order of the contiguous collapse(2)
	// loop.
	for _, le := range w.slots {
		for it := firstWorkItem(le*qsize, c.ID); it < (le+1)*qsize; it += sw.CPEsPerCG {
			q := it % qsize
			e := en.element(le)

			c.DMA.GetShared(deriv, en.M.DerivFlat)
			c.DMA.Get(dinv, e.DinvFlat)
			c.DMA.Get(metdet, e.Metdet)
			op.Set(np, e.DAlpha, deriv, dinv, nil, metdet)
			c.DMA.Get(uT, st.U[le])
			c.DMA.Get(vT, st.V[le])
			qdp := st.QdpAt(le, q)
			c.DMA.Get(qT, qdp)

			for k := 0; k < nlev; k++ {
				o := k * npsq
				for n := 0; n < npsq; n++ {
					flxU[n] = uT[o+n] * qT[o+n]
					flxV[n] = vT[o+n] * qT[o+n]
				}
				op.Divergence(flxU, flxV, div, gv1, gv2)
				for n := 0; n < npsq; n++ {
					qT[o+n] -= dt * div[n]
				}
			}
			c.CountFlops(eulerStageFlops(np, nlev)) // scalar: no manual vectorization
			c.DMA.Put(qdp, qT)
		}
	}
}

// eulerAthread is Algorithm 2: elements advance in blocks of 8 across
// the CPE mesh columns, the 8 mesh rows split the vertical into
// nlev/8-layer groups, non-tracer arrays are fetched once per element
// and kept resident in LDM across the whole q loop, and the inner
// arithmetic runs through the vector unit. Tiles are MeshDim-aligned,
// so each tile's block loop visits exactly the untiled (base, column)
// pairs within its range.
func (en *Engine) eulerAthread(sub Subset, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	if en.plans.eulerAth == nil {
		en.plans.eulerAth = newEulerLDM(en.Np, en.maxRowLevels())
	}
	en.runCPE(sel, sub.Phase == Close, launchArgs{cur: st, dt: dt, cpe: (*Engine).eulerAthreadCPE})
	return en.collectSplit(Athread, sub.Phase)
}

// eulerAthreadCPE is eulerAthread's CPE body. Its tiles persist for the
// whole kernel, sized for the largest row block so that every CPE lays
// out identically.
func (en *Engine) eulerAthreadCPE(w *dynWorker, c *sw.CPE) {
	np := en.Np
	npsq := np * np
	st, dt := en.args.cur, en.args.dt
	l, ldm := en.plans.eulerAth, c.LDM
	ldm.Load(&l.LDMPlan)
	s, vl := en.rowLevels(c.Row)
	slab := vl * npsq

	deriv := ldm.View(l.deriv)
	c.Setup(func() { c.DMA.GetShared(deriv, en.M.DerivFlat) })
	dinv, metdet := ldm.View(l.dinv), ldm.View(l.metdet)
	uT, vT, qT := ldm.View(l.u)[:slab], ldm.View(l.v)[:slab], ldm.View(l.qdp)[:slab]
	flxU, flxV, div, gv1, gv2 := ldm.View(l.flxU), ldm.View(l.flxV), ldm.View(l.div), ldm.View(l.gv1), ldm.View(l.gv2)
	var op dycore.Operators

	// Column membership is per element (le % MeshDim), so any
	// slot list executes on the same CPEs as a contiguous run.
	for _, le := range w.slots {
		if le%sw.MeshDim != c.Col {
			continue
		}
		e := en.element(le)
		if vl == 0 {
			continue // more mesh rows than levels: this row idles
		}
		// Non-q arrays: one DMA per element, reused across all tracers.
		c.DMA.Get(dinv, e.DinvFlat)
		c.DMA.Get(metdet, e.Metdet)
		op.Set(np, e.DAlpha, deriv, dinv, nil, metdet)
		c.DMA.Get(uT, st.U[le][s*npsq:s*npsq+slab])
		c.DMA.Get(vT, st.V[le][s*npsq:s*npsq+slab])

		for q := 0; q < en.Qsize; q++ {
			qdp := st.QdpAt(le, q)
			c.DMA.Get(qT, qdp[s*npsq:s*npsq+slab])
			for k := 0; k < vl; k++ {
				o := k * npsq
				for j := 0; j < np; j++ {
					uv := sw.LoadVec4(uT, o+4*j)
					vv := sw.LoadVec4(vT, o+4*j)
					qv := sw.LoadVec4(qT, o+4*j)
					uv.Mul(qv).Store(flxU, 4*j)
					vv.Mul(qv).Store(flxV, 4*j)
				}
				c.CountVecFlops(int64(2 * npsq))
				divergenceSlabVec4(c, &op, flxU, flxV, div, gv1, gv2)
				for j := 0; j < np; j++ {
					qv := sw.LoadVec4(qT, o+4*j)
					dv := sw.LoadVec4(div, 4*j)
					qv.Sub(dv.Scale(dt)).Store(qT, o+4*j)
				}
				c.CountVecFlops(int64(2 * npsq))
			}
			c.DMA.Put(qdp[s*npsq:s*npsq+slab], qT)
		}
	}
}
