package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// verticalRemap runs the vertical_remap kernel (Table 1 row 3) under the
// chosen backend, remapping every local element's state back to the
// reference hybrid grid; the exported, instrumented entry point is in
// instrument.go.
//
// The remap is column-independent, so the CPE backends distribute
// (element, node) columns across the 64 cores. The columns live strided
// in the level-major arrays, which is exactly the axis-switch problem of
// §7.3/§7.5: the Athread backend gathers each column with one strided
// DMA per field (fine-grained but batched by the DMA engine), while the
// OpenACC backend re-fetches whole level slabs per column and extracts
// the single node it needs — the directive-level access pattern that
// cannot express a stride.
func (en *Engine) verticalRemap(b Backend, h *dycore.HybridCoord, st *dycore.State) Cost {
	en.beginLaunch(Subset{})
	sel := en.allSub
	np, nlev, qsize := en.Np, en.Nlev, en.Qsize
	npsq := np * np
	switch b {
	case Intel, MPE:
		flops, bytes := en.runTiles(sel, func(w *dynWorker, slots []int, p *serialPartial) {
			for _, le := range slots {
				dycore.RemapStateElem(h, np, nlev, qsize,
					st.U[le], st.V[le], st.T[le], st.DP[le], st.Qdp[le],
					w.colA, w.colB, w.colC, w.colD, w.rws)
				p.flops += remapFlops(np, nlev, qsize)
				p.bytes += remapBytes(np, nlev, qsize)
			}
		})
		return serialCost(b, flops, bytes)

	case OpenACC:
		// The directive version's whole-slab fetches would overlap other
		// cores' single-value write-backs; on the hardware each core only
		// consumes its own column so the overlap is benign, but in the
		// simulator we read from an immutable snapshot to keep the Go
		// memory model honest. Traffic accounting is unchanged. Each tile
		// snapshots only its own element rows (into the worker's pooled
		// buffer): tiles never read another tile's rows, so the restricted
		// snapshot is exactly as honest as the former whole-state copy.
		en.armCGs(sel, false)
		en.runTiles(sel, func(wk *dynWorker, slots []int, _ *serialPartial) {
			rowLen := nlev * npsq
			inU, inV, inT, inDP, inQ := wk.snapshot(st.U, st.V, st.T, st.DP, st.Qdp,
				slots, rowLen, qsize*rowLen)
			wk.cg.Spawn(func(c *sw.CPE) {
				ldm := c.LDM
				rw := wk.rws
				// Per-element restart of the round-robin column loop, like
				// rhsOpenACC: the global (element, node) -> CPE assignment
				// and each CPE's item order match one contiguous loop.
				for i, le := range slots {
					for w := firstWorkItem(le*npsq, c.ID); w < (le+1)*npsq; w += sw.CPEsPerCG {
						ldm.Reset()
						n := w % npsq
						// Whole-slab fetches per column: nlev levels x npsq nodes
						// read to use one node each — the un-hoistable pattern.
						slabBuf := ldm.MustAlloc("slab", npsq)
						colSrc := ldm.MustAlloc("colSrc", nlev)
						colVal := ldm.MustAlloc("colVal", nlev)
						colRef := ldm.MustAlloc("colRef", nlev)
						colOut := ldm.MustAlloc("colOut", nlev)

						fetchColumn := func(f []float64, dst []float64) {
							for k := 0; k < nlev; k++ {
								c.DMA.Get(slabBuf, f[k*npsq:(k+1)*npsq])
								dst[k] = slabBuf[n]
							}
						}
						storeColumn := func(f []float64, src []float64) {
							// One single-value DMA per level: the write-back
							// granule a directive compiler emits for a strided
							// store it cannot batch.
							for k := 0; k < nlev; k++ {
								slabBuf[0] = src[k]
								c.DMA.PutStride(f[k*npsq+n:], slabBuf[:1], 1, 1, 1)
							}
						}

						fetchColumn(inDP[i], colSrc)
						ps := dycore.PTop
						for k := 0; k < nlev; k++ {
							ps += colSrc[k]
						}
						c.CountFlops(int64(nlev))
						h.ReferenceDP(ps, colRef)
						c.CountFlops(int64(4 * nlev))
						rw.Prepare(colSrc, colRef)

						remap := func(src, dst []float64, asMass bool) {
							fetchColumn(src, colVal)
							if asMass {
								for k := 0; k < nlev; k++ {
									colVal[k] /= colSrc[k]
								}
								c.CountFlops(int64(nlev))
							}
							rw.Apply(colVal, colOut)
							c.CountFlops(int64(40 * nlev))
							if asMass {
								for k := 0; k < nlev; k++ {
									colOut[k] *= colRef[k]
								}
								c.CountFlops(int64(nlev))
							}
							storeColumn(dst, colOut)
						}
						remap(inU[i], st.U[le], false)
						remap(inV[i], st.V[le], false)
						remap(inT[i], st.T[le], false)
						for q := 0; q < qsize; q++ {
							remap(inQ[i][q*rowLen:(q+1)*rowLen], st.QdpAt(le, q), true)
						}
						storeColumn(st.DP[le], colRef)
					}
				}
			})
		})
		return en.collect(OpenACC, 1)

	case Athread:
		en.armCGs(sel, false)
		en.runTiles(sel, func(wk *dynWorker, slots []int, _ *serialPartial) {
			wk.cg.Spawn(func(c *sw.CPE) {
				ldm := c.LDM
				rw := wk.rws
				colSrc := ldm.MustAlloc("colSrc", nlev)
				colVal := ldm.MustAlloc("colVal", nlev)
				colRef := ldm.MustAlloc("colRef", nlev)
				colOut := ldm.MustAlloc("colOut", nlev)
				for _, le := range slots {
					for w := firstWorkItem(le*npsq, c.ID); w < (le+1)*npsq; w += sw.CPEsPerCG {
						n := w % npsq
						// One strided DMA gathers the whole column per field.
						c.DMA.GetStride(colSrc, st.DP[le][n:], 1, npsq, nlev)
						ps := dycore.PTop
						for k := 0; k < nlev; k++ {
							ps += colSrc[k]
						}
						c.CountFlops(int64(nlev))
						h.ReferenceDP(ps, colRef)
						c.CountFlops(int64(4 * nlev))
						rw.Prepare(colSrc, colRef)

						remap := func(f []float64, asMass bool) {
							c.DMA.GetStride(colVal, f[n:], 1, npsq, nlev)
							if asMass {
								for k := 0; k < nlev; k++ {
									colVal[k] /= colSrc[k]
								}
								c.CountFlops(int64(nlev))
							}
							rw.Apply(colVal, colOut)
							c.CountFlops(int64(40 * nlev))
							if asMass {
								for k := 0; k < nlev; k++ {
									colOut[k] *= colRef[k]
								}
								c.CountFlops(int64(nlev))
							}
							c.DMA.PutStride(f[n:], colOut, 1, npsq, nlev)
						}
						remap(st.U[le], false)
						remap(st.V[le], false)
						remap(st.T[le], false)
						for q := 0; q < qsize; q++ {
							remap(st.QdpAt(le, q), true)
						}
						c.DMA.PutStride(st.DP[le][n:], colRef, 1, npsq, nlev)
					}
				}
			})
		})
		return en.collect(Athread, 1)
	}
	panic("exec: unknown backend")
}
