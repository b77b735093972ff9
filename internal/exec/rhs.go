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
	flops, bytes := en.runSerial(sel, en.serTiles.rhs, serialArgs{cur: cur, base: base, out: out, dt: dt})
	return en.serialSplit(sub.Phase, flops, bytes)
}

// rhsTile is rhsSerial's tile body.
func (en *Engine) rhsTile(w *dynWorker, slots []int, p *serialPartial) {
	cur, base, out := en.ser.cur, en.ser.base, en.ser.out
	for _, le := range slots {
		e := en.element(le)
		dycore.ComputeAndApplyRHSElem(e, en.cor[le], en.M.DerivFlat, w.ws, w.rhs,
			cur.U[le], cur.V[le], cur.T[le], cur.DP[le], cur.Phis[le],
			base.U[le], base.V[le], base.T[le], base.DP[le],
			out.U[le], out.V[le], out.T[le], out.DP[le], en.ser.dt)
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
	np, nlev := en.Np, en.Nlev
	npsq := np * np
	en.armCGs(sel, sub.Phase == Close)
	en.runTiles(sel, func(w *dynWorker, slots []int, _ *serialPartial) {
		w.cg.Spawn(func(c *sw.CPE) {
			ldm := c.LDM
			// Per-element restart of the round-robin item loop: the
			// global (element, level) -> CPE assignment — and each
			// CPE's item order — is identical to one loop over a
			// contiguous range covering the same elements.
			for _, le := range slots {
				for w := firstWorkItem(le*nlev, c.ID); w < (le+1)*nlev; w += sw.CPEsPerCG {
					ldm.Reset()
					k := w % nlev
					e := en.element(le)

					deriv := ldm.MustAlloc("deriv", npsq)
					dinv := ldm.MustAlloc("dinv", 4*npsq)
					dflat := ldm.MustAlloc("dflat", 4*npsq)
					metdet := ldm.MustAlloc("metdet", npsq)
					cor := ldm.MustAlloc("cor", npsq)
					phis := ldm.MustAlloc("phis", npsq)
					c.DMA.GetShared(deriv, en.M.DerivFlat)
					c.DMA.Get(dinv, e.DinvFlat)
					c.DMA.Get(dflat, e.DFlat)
					c.DMA.Get(metdet, e.Metdet)
					c.DMA.Get(cor, en.cor[le])
					c.DMA.Get(phis, cur.Phis[le])

					// Streaming buffers: one level slab at a time.
					dpL := ldm.MustAlloc("dpL", npsq)
					tL := ldm.MustAlloc("tL", npsq)
					uL := ldm.MustAlloc("uL", npsq)
					vL := ldm.MustAlloc("vL", npsq)
					flxU := ldm.MustAlloc("flxU", npsq)
					flxV := ldm.MustAlloc("flxV", npsq)
					div := ldm.MustAlloc("div", npsq)
					s1 := ldm.MustAlloc("s1", npsq)
					s2 := ldm.MustAlloc("s2", npsq)

					pRun := ldm.MustAlloc("pRun", npsq)   // running interface pressure
					cumDiv := ldm.MustAlloc("cum", npsq)  // running divergence sum
					pMidK := ldm.MustAlloc("pMidK", npsq) // pressure at my level
					divK := ldm.MustAlloc("divK", npsq)
					uK := ldm.MustAlloc("uK", npsq)
					vK := ldm.MustAlloc("vK", npsq)
					tK := ldm.MustAlloc("tK", npsq)
					dpK := ldm.MustAlloc("dpK", npsq)
					// Buffered hydrostatic increments for the descending sum:
					// one value per node per level at or below k.
					dphi := ldm.MustAlloc("dphi", nlev*npsq)

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
						dycore.DivergenceSlab(deriv, dinv, metdet, e.DAlpha, np, flxU, flxV, div, s1, s2)
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
					gx := ldm.MustAlloc("gx", npsq)
					gy := ldm.MustAlloc("gy", npsq)
					gpx := ldm.MustAlloc("gpx", npsq)
					gpy := ldm.MustAlloc("gpy", npsq)
					tx := ldm.MustAlloc("tx", npsq)
					ty := ldm.MustAlloc("ty", npsq)
					vort := ldm.MustAlloc("vort", npsq)
					ke := ldm.MustAlloc("ke", npsq)
					sa := ldm.MustAlloc("sa", npsq)
					sb := ldm.MustAlloc("sb", npsq)
					for n := 0; n < npsq; n++ {
						ke[n] = (uK[n]*uK[n]+vK[n]*vK[n])/2 + phiK[n]
					}
					dycore.GradientSlab(deriv, dinv, e.DAlpha, np, ke, gx, gy, sa, sb)
					dycore.GradientSlab(deriv, dinv, e.DAlpha, np, pMidK, gpx, gpy, sa, sb)
					dycore.GradientSlab(deriv, dinv, e.DAlpha, np, tK, tx, ty, sa, sb)
					dycore.VorticitySlab(deriv, dflat, metdet, e.DAlpha, np, uK, vK, vort, sa, sb)
					c.CountFlops(int64(4*npsq) + 3*gradFlops(np) + vortFlops(np))

					o := k * npsq
					outU := ldm.MustAlloc("outU", npsq)
					outV := ldm.MustAlloc("outV", npsq)
					outT := ldm.MustAlloc("outT", npsq)
					outDP := ldm.MustAlloc("outDP", npsq)
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
		})
	})
	return en.collectSplit(OpenACC, sub.Phase)
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
	np := en.Np
	npsq := np * np
	maxVl := en.maxRowLevels()
	en.armCGs(sel, sub.Phase == Close)
	en.runTiles(sel, func(w *dynWorker, slots []int, _ *serialPartial) {
		w.cg.Spawn(func(c *sw.CPE) {
			ldm := c.LDM
			s, vl := en.rowLevels(c.Row)
			slab := vl * npsq
			maxSlab := maxVl * npsq

			deriv := ldm.MustAlloc("deriv", npsq)
			c.Setup(func() { c.DMA.GetShared(deriv, en.M.DerivFlat) })
			dinv := ldm.MustAlloc("dinv", 4*npsq)
			dflat := ldm.MustAlloc("dflat", 4*npsq)
			metdet := ldm.MustAlloc("metdet", npsq)
			cor := ldm.MustAlloc("cor", npsq)
			phis := ldm.MustAlloc("phis", npsq)

			uT := ldm.MustAlloc("u", maxSlab)[:slab]
			vT := ldm.MustAlloc("v", maxSlab)[:slab]
			tT := ldm.MustAlloc("t", maxSlab)[:slab]
			dpT := ldm.MustAlloc("dp", maxSlab)[:slab]
			pMid := ldm.MustAlloc("pMid", maxSlab)[:slab]
			phi := ldm.MustAlloc("phi", maxSlab)[:slab]
			divDp := ldm.MustAlloc("divDp", maxSlab)[:slab]
			cumDiv := ldm.MustAlloc("cumDiv", maxSlab)[:slab]

			// The paper's kernel stages one node's levels for its scalar
			// register chain. The batched scan reads the slabs in place,
			// but the LDM plan keeps the staging, so the modelled
			// footprint stays the §7.4 kernel's.
			ldm.MustAlloc("colIn", maxVl)
			ldm.MustAlloc("colOut", maxVl)

			flxU := ldm.MustAlloc("flxU", npsq)
			flxV := ldm.MustAlloc("flxV", npsq)
			gv1 := ldm.MustAlloc("gv1", npsq)
			gv2 := ldm.MustAlloc("gv2", npsq)
			ke := ldm.MustAlloc("ke", npsq)
			gx := ldm.MustAlloc("gx", npsq)
			gy := ldm.MustAlloc("gy", npsq)
			gpx := ldm.MustAlloc("gpx", npsq)
			gpy := ldm.MustAlloc("gpy", npsq)
			tx := ldm.MustAlloc("tx", npsq)
			ty := ldm.MustAlloc("ty", npsq)
			vort := ldm.MustAlloc("vort", npsq)

			oU := ldm.MustAlloc("oU", maxSlab)[:slab]
			oV := ldm.MustAlloc("oV", maxSlab)[:slab]
			oT := ldm.MustAlloc("oT", maxSlab)[:slab]
			oDP := ldm.MustAlloc("oDP", maxSlab)[:slab]

			// Element le belongs to mesh column le % MeshDim; every row
			// of a column sees the same slot sequence (the filter is
			// row-independent), so the register-communication column
			// scans stay paired exactly as in the contiguous block loop.
			for _, le := range slots {
				if le%sw.MeshDim != c.Col {
					continue
				}
				e := en.element(le)
				c.DMA.Get(dinv, e.DinvFlat)
				c.DMA.Get(dflat, e.DFlat)
				c.DMA.Get(metdet, e.Metdet)
				c.DMA.Get(cor, en.cor[le])
				c.DMA.Get(phis, cur.Phis[le])
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
					divergenceSlabVec4(c, deriv, dinv, metdet, e.DAlpha, flxU, flxV, divDp[o:o+npsq], gv1, gv2)
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
					gradientSlabVec4(c, deriv, dinv, e.DAlpha, ke, gx, gy, gv1, gv2)
					gradientSlabVec4(c, deriv, dinv, e.DAlpha, pMid[o:o+npsq], gpx, gpy, gv1, gv2)
					gradientSlabVec4(c, deriv, dinv, e.DAlpha, tT[o:o+npsq], tx, ty, gv1, gv2)
					vorticitySlabVec4(c, deriv, dflat, metdet, e.DAlpha, uT[o:o+npsq], vT[o:o+npsq], vort, gv1, gv2)

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
		})
	})
	return en.collectSplit(Athread, sub.Phase)
}
