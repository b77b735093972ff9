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
	case Intel, MPE:
		return en.eulerSerial(sub, b, sel, st, dt)
	case OpenACC:
		return en.eulerOpenACC(sub, sel, st, dt)
	case Athread:
		return en.eulerAthread(sub, sel, st, dt)
	}
	panic("exec: unknown backend")
}

// eulerSerial is the reference path: the dycore element kernel on one
// conventional core (Intel) or on the management core (MPE), tiled
// across the worker pool.
func (en *Engine) eulerSerial(sub Subset, b Backend, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	flops, bytes := en.runTiles(sel, func(w *dynWorker, slots []int, p *serialPartial) {
		for _, le := range slots {
			e := en.element(le)
			for q := 0; q < en.Qsize; q++ {
				qdp := st.QdpAt(le, q)
				dycore.EulerStepElem(e, en.M.DerivFlat, en.Np, en.Nlev,
					st.U[le], st.V[le], qdp, qdp, dt, w.flxU, w.flxV, w.div, w.gv1, w.gv2)
			}
			p.flops += eulerStageFlops(en.Np, en.Nlev) * int64(en.Qsize)
			p.bytes += eulerBytes(en.Np, en.Nlev, en.Qsize)
		}
	})
	return en.serialSplit(b, sub.Phase, flops, bytes)
}

// eulerOpenACC is Algorithm 1: the collapse(2) parallelization over
// (element, tracer) pairs the Sunway OpenACC compiler produces. Because
// the copyin sits inside the q loop, every (ie, q) iteration re-reads
// the velocity and metric arrays — the redundant traffic that made
// bandwidth "the inevitable bottleneck" (§7.3). Each element tile covers
// the item range [lo*qsize, hi*qsize) with the global item → CPE
// assignment intact.
func (en *Engine) eulerOpenACC(sub Subset, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	np, nlev, qsize := en.Np, en.Nlev, en.Qsize
	npsq := np * np
	en.armCGs(sel, sub.Phase == Close)
	en.runTiles(sel, func(w *dynWorker, slots []int, _ *serialPartial) {
		w.cg.Spawn(func(c *sw.CPE) {
			ldm := c.LDM
			// Per-element restart keeps the global (element, tracer) ->
			// CPE assignment and per-CPE item order of the contiguous
			// collapse(2) loop.
			for _, le := range slots {
				for w := firstWorkItem(le*qsize, c.ID); w < (le+1)*qsize; w += sw.CPEsPerCG {
					ldm.Reset()
					q := w % qsize
					e := en.element(le)

					// Per-iteration copyin of everything, Algorithm 1 style.
					deriv := ldm.MustAlloc("deriv", npsq)
					dinv := ldm.MustAlloc("dinv", 4*npsq)
					metdet := ldm.MustAlloc("metdet", npsq)
					uT := ldm.MustAlloc("u", nlev*npsq)
					vT := ldm.MustAlloc("v", nlev*npsq)
					qT := ldm.MustAlloc("qdp", nlev*npsq)
					c.DMA.GetShared(deriv, en.M.DerivFlat)
					c.DMA.Get(dinv, e.DinvFlat)
					c.DMA.Get(metdet, e.Metdet)
					c.DMA.Get(uT, st.U[le])
					c.DMA.Get(vT, st.V[le])
					qdp := st.QdpAt(le, q)
					c.DMA.Get(qT, qdp)

					flxU := ldm.MustAlloc("flxU", npsq)
					flxV := ldm.MustAlloc("flxV", npsq)
					div := ldm.MustAlloc("div", npsq)
					gv1 := ldm.MustAlloc("gv1", npsq)
					gv2 := ldm.MustAlloc("gv2", npsq)
					for k := 0; k < nlev; k++ {
						o := k * npsq
						for n := 0; n < npsq; n++ {
							flxU[n] = uT[o+n] * qT[o+n]
							flxV[n] = vT[o+n] * qT[o+n]
						}
						dycore.DivergenceSlab(deriv, dinv, metdet, e.DAlpha, np,
							flxU, flxV, div, gv1, gv2)
						for n := 0; n < npsq; n++ {
							qT[o+n] -= dt * div[n]
						}
					}
					c.CountFlops(eulerStageFlops(np, nlev)) // scalar: no manual vectorization
					c.DMA.Put(qdp, qT)
				}
			}
		})
	})
	// One parallel-region launch for the whole kernel (the OpenACC
	// runtime launches per directive region; the q loop is collapsed
	// into the same region, and the host-side tiles all simulate
	// portions of that one region).
	return en.collectSplit(OpenACC, sub.Phase)
}

// eulerAthread is Algorithm 2: elements advance in blocks of 8 across
// the CPE mesh columns, the 8 mesh rows split the vertical into
// nlev/8-layer groups, non-tracer arrays are fetched once per element
// and kept resident in LDM across the whole q loop, and the inner
// arithmetic runs through the vector unit. Tiles are MeshDim-aligned,
// so each tile's block loop visits exactly the untiled (base, column)
// pairs within its range.
func (en *Engine) eulerAthread(sub Subset, sel *ElemSubset, st *dycore.State, dt float64) Cost {
	np := en.Np
	npsq := np * np
	maxVl := en.maxRowLevels()
	en.armCGs(sel, sub.Phase == Close)
	en.runTiles(sel, func(w *dynWorker, slots []int, _ *serialPartial) {
		w.cg.Spawn(func(c *sw.CPE) {
			ldm := c.LDM
			s, vl := en.rowLevels(c.Row)
			slab := vl * npsq

			// Persistent tiles, allocated once for the whole kernel (sized
			// for the largest row block so all CPEs allocate identically).
			deriv := ldm.MustAlloc("deriv", npsq)
			c.Setup(func() { c.DMA.GetShared(deriv, en.M.DerivFlat) })
			dinv := ldm.MustAlloc("dinv", 4*npsq)
			metdet := ldm.MustAlloc("metdet", npsq)
			uT := ldm.MustAlloc("u", maxVl*npsq)[:slab]
			vT := ldm.MustAlloc("v", maxVl*npsq)[:slab]
			qT := ldm.MustAlloc("qdp", maxVl*npsq)[:slab]
			flxU := ldm.MustAlloc("flxU", npsq)
			flxV := ldm.MustAlloc("flxV", npsq)
			div := ldm.MustAlloc("div", npsq)
			gv1 := ldm.MustAlloc("gv1", npsq)
			gv2 := ldm.MustAlloc("gv2", npsq)

			// Column membership is per element (le % MeshDim), so any
			// slot list executes on the same CPEs as a contiguous run.
			for _, le := range slots {
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
						divergenceSlabVec4(c, deriv, dinv, metdet, e.DAlpha,
							flxU, flxV, div, gv1, gv2)
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
		})
	})
	return en.collectSplit(Athread, sub.Phase)
}
