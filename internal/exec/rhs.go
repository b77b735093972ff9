package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// computeAndApplyRHS dispatches the compute_and_apply_rhs kernel over
// the selected element subset; the exported, instrumented entry points
// are in instrument.go.
func (en *Engine) computeAndApplyRHS(sub Subset, b Backend, cur, base, out *dycore.State, dt float64) Cost {
	en.beginLaunch(sub)
	sel := en.sel(sub)
	switch b {
	case Intel:
		return en.rhsSerial(sub, sel, cur, base, out, dt)
	case OpenACC:
		return en.rhsOpenACC(sub, sel, cur, base, out, dt)
	case Athread:
		return en.rhsAthread(sub, sel, cur, base, out, dt)
	}
	panic("exec: unknown backend")
}

func (en *Engine) rhsSerial(sub Subset, sel *ElemSubset, cur, base, out *dycore.State, dt float64) Cost {
	flops, bytes := en.launch(sel, en.bodies.rhs, launchArgs{cur: cur, base: base, out: out, dt: dt})
	return en.serialSplit(sub.Phase, flops, bytes)
}

// rhsTile is rhsSerial's tile body.
func (en *Engine) rhsTile(w *dynWorker, slots []int, p *serialPartial) {
	cur, base, out := en.args.cur, en.args.base, en.args.out
	for _, le := range slots {
		e := en.element(le)
		dycore.ComputeAndApplyRHSElem(e, en.cor[le], en.M.DerivFlat, w.ws, w.rhs,
			cur.U[le], cur.V[le], cur.T[le], cur.DP[le], cur.Phis[le],
			base.U[le], base.V[le], base.T[le], base.DP[le],
			out.U[le], out.V[le], out.T[le], out.DP[le], en.args.dt)
		p.flops += rhsFlops(en.Np, en.Nlev)
		p.bytes += rhsBytes(en.Np, en.Nlev)
	}
}

// rhsOpenACC distributes (element, level) iterations across the CPEs,
// but the OpenACC model gives a CPE no way to receive a neighbour's
// partial sums, so every vertical dependency — the pressure scan, the
// geopotential integral, the running divergence sum — is recomputed from
// the column ends by every CPE that needs it, streaming the column data
// level by level through a small buffer. The result is the O(nlev)
// redundancy in both flops and DMA traffic that left this kernel slower
// than a single Intel core in Table 1. Arithmetic follows the serial
// kernel exactly (same order), so results are identical to the Intel
// backend.
func (en *Engine) rhsOpenACC(sub Subset, sel *ElemSubset, cur, base, out *dycore.State, dt float64) Cost {
	if en.plans.rhsACC == nil {
		en.plans.rhsACC = newRhsACCLDM(en.Np, en.Nlev)
	}
	en.runCPE(sel, sub.Phase == Close,
		launchArgs{cur: cur, base: base, out: out, dt: dt, cpe: (*Engine).rhsOpenACCCPE})
	return en.collectSplit(OpenACC, sub.Phase)
}

// rhsACCLDM is rhsOpenACC's LDM plan: one work item's buffers, in the
// order the item uses them. Every item of a CPE reuses them.
type rhsACCLDM struct {
	sw.LDMPlan
	deriv, dinv, dflat, metdet, cor, phis            sw.LDMBuf
	dpL, tL, uL, vL, flxU, flxV, div, s1, s2         sw.LDMBuf
	pRun, cumDiv, pMidK, divK, uK, vK, tK, dpK, dphi sw.LDMBuf
	gx, gy, gpx, gpy, tx, ty, vort, ke, sa, sb       sw.LDMBuf
	outU, outV, outT, outDP                          sw.LDMBuf
}

func newRhsACCLDM(np, nlev int) *rhsACCLDM {
	npsq := np * np
	l := &rhsACCLDM{}
	p := &l.LDMPlan
	l.deriv = p.Add("deriv", npsq)
	addBufs(p, 4*npsq, "dinv dflat", &l.dinv, &l.dflat)
	addBufs(p, npsq, "metdet cor phis", &l.metdet, &l.cor, &l.phis)
	// Streaming buffers: one level slab at a time.
	addBufs(p, npsq, "dpL tL uL vL flxU flxV div s1 s2",
		&l.dpL, &l.tL, &l.uL, &l.vL, &l.flxU, &l.flxV, &l.div, &l.s1, &l.s2)
	// Running interface pressure and divergence sum, and my level's
	// pressure, divergence and fields.
	addBufs(p, npsq, "pRun cum pMidK divK uK vK tK dpK",
		&l.pRun, &l.cumDiv, &l.pMidK, &l.divK, &l.uK, &l.vK, &l.tK, &l.dpK)
	// Buffered hydrostatic increments for the descending sum: one value
	// per node per level at or below k.
	l.dphi = p.Add("dphi", nlev*npsq)
	// Level-k horizontal terms and tendencies.
	addBufs(p, npsq, "gx gy gpx gpy tx ty vort ke sa sb",
		&l.gx, &l.gy, &l.gpx, &l.gpy, &l.tx, &l.ty, &l.vort, &l.ke, &l.sa, &l.sb)
	addBufs(p, npsq, "outU outV outT outDP", &l.outU, &l.outV, &l.outT, &l.outDP)
	return l
}

// rhsOpenACCCPE is rhsOpenACC's CPE body.
func (en *Engine) rhsOpenACCCPE(w *dynWorker, c *sw.CPE) {
	np, nlev := en.Np, en.Nlev
	npsq := np * np
	cur, base, out, dt := en.args.cur, en.args.base, en.args.out, en.args.dt
	l, ldm := en.plans.rhsACC, c.LDM
	ldm.Load(&l.LDMPlan)
	deriv, dinv, dflat, metdet := ldm.View(l.deriv), ldm.View(l.dinv), ldm.View(l.dflat), ldm.View(l.metdet)
	cor, phis := ldm.View(l.cor), ldm.View(l.phis)
	dpL, tL, uL, vL := ldm.View(l.dpL), ldm.View(l.tL), ldm.View(l.uL), ldm.View(l.vL)
	flxU, flxV, div, s1, s2 := ldm.View(l.flxU), ldm.View(l.flxV), ldm.View(l.div), ldm.View(l.s1), ldm.View(l.s2)
	pRun, cumDiv, pMidK, divK := ldm.View(l.pRun), ldm.View(l.cumDiv), ldm.View(l.pMidK), ldm.View(l.divK)
	uK, vK, tK, dpK := ldm.View(l.uK), ldm.View(l.vK), ldm.View(l.tK), ldm.View(l.dpK)
	dphi := ldm.View(l.dphi)
	gx, gy, gpx, gpy := ldm.View(l.gx), ldm.View(l.gy), ldm.View(l.gpx), ldm.View(l.gpy)
	tx, ty, vort, ke, sa, sb := ldm.View(l.tx), ldm.View(l.ty), ldm.View(l.vort), ldm.View(l.ke), ldm.View(l.sa), ldm.View(l.sb)
	outU, outV, outT, outDP := ldm.View(l.outU), ldm.View(l.outV), ldm.View(l.outT), ldm.View(l.outDP)
	var op dycore.Operators
	// Per-element restart of the round-robin item loop: the global
	// (element, level) -> CPE assignment — and each CPE's item order —
	// is identical to one loop over a contiguous range covering the same
	// elements.
	for _, le := range w.slots {
		for it := firstWorkItem(le*nlev, c.ID); it < (le+1)*nlev; it += sw.CPEsPerCG {
			k := it % nlev
			e := en.element(le)

			c.DMA.GetShared(deriv, en.M.DerivFlat)
			c.DMA.Get(dinv, e.DinvFlat)
			c.DMA.Get(dflat, e.DFlat)
			c.DMA.Get(metdet, e.Metdet)
			c.DMA.Get(cor, en.cor[le])
			c.DMA.Get(phis, cur.Phis[le])
			op.Set(np, e.DAlpha, deriv, dinv, dflat, metdet)

			for n := 0; n < npsq; n++ {
				pRun[n] = dycore.PTop
				cumDiv[n] = 0
			}
			// Pass 1 (top -> my level): pressure scan, mass-flux
			// divergence, running omega sum. Every level's data is
			// re-fetched by every CPE working on this element.
			for l := 0; l <= k; l++ {
				o := l * npsq
				c.DMA.Get(dpL, cur.DP[le][o:o+npsq])
				c.DMA.Get(uL, cur.U[le][o:o+npsq])
				c.DMA.Get(vL, cur.V[le][o:o+npsq])
				for n := 0; n < npsq; n++ {
					flxU[n] = uL[n] * dpL[n]
					flxV[n] = vL[n] * dpL[n]
				}
				op.Divergence(flxU, flxV, div, s1, s2)
				c.CountFlops(int64(2*npsq) + divFlops(np))
				if l < k {
					for n := 0; n < npsq; n++ {
						cumDiv[n] += div[n]
						pRun[n] += dpL[n]
					}
					c.CountFlops(int64(2 * npsq))
				} else {
					for n := 0; n < npsq; n++ {
						pMidK[n] = pRun[n] + dpL[n]/2
						cumDiv[n] = cumDiv[n] + div[n]/2
						divK[n] = div[n]
						uK[n], vK[n], tK[n], dpK[n] = uL[n], vL[n], 0, dpL[n]
					}
					c.CountFlops(int64(4 * npsq))
				}
			}
			c.DMA.Get(tK, cur.T[le][k*npsq:(k+1)*npsq])

			// Pass 2 (my level -> surface, then back up): the hydrostatic
			// geopotential integrates surface-to-top, so each CPE streams
			// the remaining column downward (re-reading dp and T for every
			// level at or below its own — the second redundancy), buffers
			// the increments, and accumulates them in the serial kernel's
			// descending order.
			phiK := s1
			phiInt := s2
			for l := k; l < nlev; l++ {
				o := l * npsq
				c.DMA.Get(dpL, cur.DP[le][o:o+npsq])
				c.DMA.Get(tL, cur.T[le][o:o+npsq])
				for n := 0; n < npsq; n++ {
					pm := pRun[n] + dpL[n]/2
					dphi[l*npsq+n] = dycore.Rd * tL[n] * dpL[n] / pm
					pRun[n] += dpL[n]
				}
				c.CountFlops(int64(6 * npsq))
			}
			for n := 0; n < npsq; n++ {
				phiInt[n] = phis[n]
			}
			for l := nlev - 1; l >= k; l-- {
				for n := 0; n < npsq; n++ {
					if l == k {
						phiK[n] = phiInt[n] + dphi[l*npsq+n]/2
					}
					phiInt[n] += dphi[l*npsq+n]
				}
				c.CountFlops(int64(npsq))
			}

			// Level-k horizontal terms and tendencies.
			for n := 0; n < npsq; n++ {
				ke[n] = (uK[n]*uK[n]+vK[n]*vK[n])/2 + phiK[n]
			}
			op.Gradient(ke, gx, gy, sa, sb)
			op.Gradient(pMidK, gpx, gpy, sa, sb)
			op.Gradient(tK, tx, ty, sa, sb)
			op.Vorticity(uK, vK, vort, sa, sb)
			c.CountFlops(int64(4*npsq) + 3*gradFlops(np) + vortFlops(np))

			o := k * npsq
			c.DMA.Get(outU, base.U[le][o:o+npsq])
			c.DMA.Get(outV, base.V[le][o:o+npsq])
			c.DMA.Get(outT, base.T[le][o:o+npsq])
			c.DMA.Get(outDP, base.DP[le][o:o+npsq])
			for n := 0; n < npsq; n++ {
				absv := vort[n] + cor[n]
				p := pMidK[n]
				vgradP := uK[n]*gpx[n] + vK[n]*gpy[n]
				omega := vgradP - cumDiv[n]
				omegaP := omega / p
				ut := absv*vK[n] - gx[n] - dycore.Rd*tK[n]/p*gpx[n]
				vt := -absv*uK[n] - gy[n] - dycore.Rd*tK[n]/p*gpy[n]
				tt := -(uK[n]*tx[n] + vK[n]*ty[n]) + dycore.Kappa*tK[n]*omegaP
				dpt := -divK[n]
				outU[n] += dt * ut
				outV[n] += dt * vt
				outT[n] += dt * tt
				outDP[n] += dt * dpt
			}
			c.CountFlops(int64(38 * npsq))
			c.DMA.Put(out.U[le][o:o+npsq], outU)
			c.DMA.Put(out.V[le][o:o+npsq], outV)
			c.DMA.Put(out.T[le][o:o+npsq], outT)
			c.DMA.Put(out.DP[le][o:o+npsq], outDP)
		}
	}
}

// level4 views the np = 4 level slab of s at offset o as an array, so
// loops over its 16 nodes carry no bounds checks.
func level4(s []float64, o int) *[16]float64 { return (*[16]float64)(s[o : o+16]) }

// rhsAthread is the fine-grained redesign: one element per CPE-mesh
// column, the vertical split into 8 row blocks (Figure 2), and the three
// vertical dependency chains — pressure, geopotential, omega — carried
// across rows by register communication (§7.4). Each chain is one
// batched column scan over the element's np² nodes (sw.ColumnScanBatch),
// which charges every CPE what one scalar register chain per node costs.
// The pointwise blocks — mass flux, kinetic energy, tendencies — are
// charged as the Vec4 loops of the paper's vectorized kernel and run as
// plain np = 4 loops, each node's operations in the order of its Vec4
// lane. Once a row holds more than one level, the scan regrouping
// changes floating-point rounding at the 1e-15 relative level against
// the serial backends.
func (en *Engine) rhsAthread(sub Subset, sel *ElemSubset, cur, base, out *dycore.State, dt float64) Cost {
	if en.plans.rhsAth == nil {
		en.plans.rhsAth = newRhsAthLDM(en.Np, en.maxRowLevels())
	}
	en.runCPE(sel, sub.Phase == Close,
		launchArgs{cur: cur, base: base, out: out, dt: dt, cpe: (*Engine).rhsAthreadCPE})
	return en.collectSplit(Athread, sub.Phase)
}

// rhsAthLDM is rhsAthread's LDM plan: the element's metric, its level
// block of every field (sized for the largest row block, so that every
// CPE lays out identically), and the per-level scratch.
type rhsAthLDM struct {
	sw.LDMPlan
	deriv, dinv, dflat, metdet, cor, phis                    sw.LDMBuf
	u, v, t, dp, pMid, phi, divDp, cumDiv                    sw.LDMBuf
	flxU, flxV, gv1, gv2, ke, gx, gy, gpx, gpy, tx, ty, vort sw.LDMBuf
	oU, oV, oT, oDP                                          sw.LDMBuf
}

func newRhsAthLDM(np, maxVl int) *rhsAthLDM {
	npsq := np * np
	maxSlab := maxVl * npsq
	l := &rhsAthLDM{}
	p := &l.LDMPlan
	l.deriv = p.Add("deriv", npsq)
	addBufs(p, 4*npsq, "dinv dflat", &l.dinv, &l.dflat)
	addBufs(p, npsq, "metdet cor phis", &l.metdet, &l.cor, &l.phis)
	addBufs(p, maxSlab, "u v t dp pMid phi divDp cumDiv",
		&l.u, &l.v, &l.t, &l.dp, &l.pMid, &l.phi, &l.divDp, &l.cumDiv)
	// The paper's kernel stages one node's levels for its scalar register
	// chain. The batched scan reads the slabs in place, but the plan
	// keeps the staging, so the modelled footprint stays the §7.4
	// kernel's.
	var colIn, colOut sw.LDMBuf
	addBufs(p, maxVl, "colIn colOut", &colIn, &colOut)
	addBufs(p, npsq, "flxU flxV gv1 gv2 ke gx gy gpx gpy tx ty vort",
		&l.flxU, &l.flxV, &l.gv1, &l.gv2, &l.ke, &l.gx, &l.gy, &l.gpx, &l.gpy, &l.tx, &l.ty, &l.vort)
	addBufs(p, maxSlab, "oU oV oT oDP", &l.oU, &l.oV, &l.oT, &l.oDP)
	return l
}

// rhsAthreadCPE is rhsAthread's CPE body.
func (en *Engine) rhsAthreadCPE(w *dynWorker, c *sw.CPE) {
	npsq := en.Np * en.Np
	cur, base, out, dt := en.args.cur, en.args.base, en.args.out, en.args.dt
	l, ldm := en.plans.rhsAth, c.LDM
	ldm.Load(&l.LDMPlan)
	s, vl := en.rowLevels(c.Row)
	slab := vl * npsq

	deriv := ldm.View(l.deriv)
	c.Setup(func() { c.DMA.GetShared(deriv, en.M.DerivFlat) })
	dinv, dflat, metdet := ldm.View(l.dinv), ldm.View(l.dflat), ldm.View(l.metdet)
	cor, phis := ldm.View(l.cor), ldm.View(l.phis)
	uT, vT, tT, dpT := ldm.View(l.u)[:slab], ldm.View(l.v)[:slab], ldm.View(l.t)[:slab], ldm.View(l.dp)[:slab]
	pMid, phi := ldm.View(l.pMid)[:slab], ldm.View(l.phi)[:slab]
	divDp, cumDiv := ldm.View(l.divDp)[:slab], ldm.View(l.cumDiv)[:slab]
	flxU, flxV, gv1, gv2 := ldm.View(l.flxU), ldm.View(l.flxV), ldm.View(l.gv1), ldm.View(l.gv2)
	ke, gx, gy, gpx, gpy := ldm.View(l.ke), ldm.View(l.gx), ldm.View(l.gy), ldm.View(l.gpx), ldm.View(l.gpy)
	tx, ty, vort := ldm.View(l.tx), ldm.View(l.ty), ldm.View(l.vort)
	oU, oV, oT, oDP := ldm.View(l.oU)[:slab], ldm.View(l.oV)[:slab], ldm.View(l.oT)[:slab], ldm.View(l.oDP)[:slab]
	var op dycore.Operators

	// Element le belongs to mesh column le % MeshDim; every row
	// of a column sees the same slot sequence (the filter is
	// row-independent), so the register-communication column
	// scans stay paired exactly as in the contiguous block loop.
	for _, le := range w.slots {
		if le%sw.MeshDim != c.Col {
			continue
		}
		e := en.element(le)
		c.DMA.Get(dinv, e.DinvFlat)
		c.DMA.Get(dflat, e.DFlat)
		c.DMA.Get(metdet, e.Metdet)
		c.DMA.Get(cor, en.cor[le])
		c.DMA.Get(phis, cur.Phis[le])
		op.Set(en.Np, e.DAlpha, deriv, dinv, dflat, metdet)
		c.DMA.Get(uT, cur.U[le][s*npsq:s*npsq+slab])
		c.DMA.Get(vT, cur.V[le][s*npsq:s*npsq+slab])
		c.DMA.Get(tT, cur.T[le][s*npsq:s*npsq+slab])
		c.DMA.Get(dpT, cur.DP[le][s*npsq:s*npsq+slab])
		f := level4(cor, 0)

		// Pressure: exclusive column scan of dp from the model top,
		// then the midpoint offset.
		for n := range gv1 {
			gv1[n] = dycore.PTop
		}
		sw.ColumnScanBatch(c, sw.ScanExclusive, dpT, pMid, gv1, 0)
		for i, dp := range dpT {
			pMid[i] += dp / 2
		}
		c.CountFlops(int64(2 * slab))

		// Mass-flux divergence per level.
		fu, fv := level4(flxU, 0), level4(flxV, 0)
		for k := 0; k < vl; k++ {
			o := k * npsq
			u, v, dp := level4(uT, o), level4(vT, o), level4(dpT, o)
			for n := range fu {
				fu[n] = u[n] * dp[n]
				fv[n] = v[n] * dp[n]
			}
			c.CountVecFlops(int64(2 * npsq))
			divergenceSlabVec4(c, &op, flxU, flxV, divDp[o:o+npsq], gv1, gv2)
		}

		// Geopotential: reverse (surface-to-top) scan of
		// Rd T dp / pMid with the half-level fraction, in place.
		for i := range phi {
			phi[i] = dycore.Rd * tT[i] * dpT[i] / pMid[i]
		}
		c.CountFlops(int64(3 * slab))
		sw.ColumnScanBatch(c, sw.ScanReverse, phi, phi, phis, 0.5)

		// Omega running sum: exclusive scan of divDp plus half-level.
		clear(gv1)
		sw.ColumnScanBatch(c, sw.ScanExclusive, divDp, cumDiv, gv1, 0)
		for i, d := range divDp {
			cumDiv[i] += d / 2
		}
		c.CountFlops(int64(2 * slab))

		c.DMA.Get(oU, base.U[le][s*npsq:s*npsq+slab])
		c.DMA.Get(oV, base.V[le][s*npsq:s*npsq+slab])
		c.DMA.Get(oT, base.T[le][s*npsq:s*npsq+slab])
		c.DMA.Get(oDP, base.DP[le][s*npsq:s*npsq+slab])

		// Per-level horizontal terms and tendencies.
		ke4, vort4 := level4(ke, 0), level4(vort, 0)
		gx4, gy4, gpx4, gpy4 := level4(gx, 0), level4(gy, 0), level4(gpx, 0), level4(gpy, 0)
		tx4, ty4 := level4(tx, 0), level4(ty, 0)
		for k := 0; k < vl; k++ {
			o := k * npsq
			u, v, t, p := level4(uT, o), level4(vT, o), level4(tT, o), level4(pMid, o)
			ph := level4(phi, o)
			for n := range ke4 {
				ke4[n] = (u[n]*u[n]+v[n]*v[n])*0.5 + ph[n]
			}
			c.CountVecFlops(int64(4 * npsq))
			gradientSlabVec4(c, &op, ke, gx, gy, gv1, gv2)
			gradientSlabVec4(c, &op, pMid[o:o+npsq], gpx, gpy, gv1, gv2)
			gradientSlabVec4(c, &op, tT[o:o+npsq], tx, ty, gv1, gv2)
			vorticitySlabVec4(c, &op, uT[o:o+npsq], vT[o:o+npsq], vort, gv1, gv2)

			cd, dd := level4(cumDiv, o), level4(divDp, o)
			ou, ov, ot, odp := level4(oU, o), level4(oV, o), level4(oT, o), level4(oDP, o)
			for n := range ou {
				absv := vort4[n] + f[n]
				vgradP := u[n]*gpx4[n] + v[n]*gpy4[n]
				omegaP := (vgradP - cd[n]) / p[n]
				rt := dycore.Rd * t[n] / p[n]
				ut := absv*v[n] - gx4[n] - rt*gpx4[n]
				vt := -absv*u[n] - gy4[n] - rt*gpy4[n]
				tt := -(u[n]*tx4[n] + v[n]*ty4[n]) + dycore.Kappa*t[n]*omegaP
				ou[n] += dt * ut
				ov[n] += dt * vt
				ot[n] += dt * tt
				odp[n] += dt * -dd[n]
			}
			c.CountVecFlops(int64(38 * npsq))
		}

		c.DMA.Put(out.U[le][s*npsq:s*npsq+slab], oU)
		c.DMA.Put(out.V[le][s*npsq:s*npsq+slab], oV)
		c.DMA.Put(out.T[le][s*npsq:s*npsq+slab], oT)
		c.DMA.Put(out.DP[le][s*npsq:s*npsq+slab], oDP)
	}
}
