package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// verticalRemapTransposed is the §7.5 variant of the Athread vertical
// remap: the axis switch from level-major storage to per-node columns is
// performed *inside the chip* with register communication, instead of
// through nlev fine-grained strided DMA descriptors per column.
//
// Decomposition (one element per CPE-mesh column, as in the other
// Athread kernels): CPE (r, j) first DMA-gets its Figure 2 level block —
// levels [r*vl, (r+1)*vl) x all 16 nodes — as ONE contiguous transfer
// per field. The eight CPEs of the mesh column then perform an
// all-to-all over the register fabric (XOR-phase schedule, so every
// phase is a disjoint pairing): after it, CPE (r, j) holds the complete
// nlev columns of nodes r and r+8, runs the column remap locally, and
// the inverse exchange + one contiguous DMA-put restores level-major
// layout.
//
// Results are identical to VerticalRemap(Athread,...) — same per-column
// arithmetic — but the architectural events differ sharply: DMA issues
// drop from O(nlev) per column to O(1) per field while register traffic
// grows, which is precisely the trade the paper built the transposition
// machinery to win. BenchmarkRemapTransposeAblation compares the two.
func (en *Engine) verticalRemapTransposed(h *dycore.HybridCoord, st *dycore.State) Cost {
	en.beginLaunch(Subset{})
	np, nlev, qsize := en.Np, en.Nlev, en.Qsize
	npsq := np * np
	vl := en.vlPerCPE()
	if (vl*2)%sw.VecWidth != 0 {
		panic("exec: transposed remap needs nlev/8 pairs in vector multiples")
	}

	en.armCGs(en.allSub, false)
	en.runTiles(en.allSub, func(wk *dynWorker, slots []int, _ *serialPartial) {
		rws := wk.transposeRemapWS(nlev)
		wk.cg.Spawn(func(c *sw.CPE) {
			ldm := c.LDM
			// The geometry of both columns lives across the register
			// exchanges between fields, so each CPE holds its own.
			rwA, rwB := rws[2*c.ID], rws[2*c.ID+1]
			s := c.Row * vl
			slab := vl * npsq

			tile := ldm.MustAlloc("tile", slab) // level-major: my levels x 16 nodes
			colA := ldm.MustAlloc("colA", nlev) // node c.Row's full column
			colB := ldm.MustAlloc("colB", nlev) // node c.Row+8's full column
			srcA := ldm.MustAlloc("srcA", nlev) // dp columns stay resident
			srcB := ldm.MustAlloc("srcB", nlev)
			refA := ldm.MustAlloc("refA", nlev)
			refB := ldm.MustAlloc("refB", nlev)
			out := ldm.MustAlloc("out", nlev)
			sendBuf := ldm.MustAlloc("send", vl*2)
			recvBuf := ldm.MustAlloc("recv", vl*2)

			// pack extracts my levels of nodes {n, n+8} from the tile.
			pack := func(n int, dst []float64) {
				for k := 0; k < vl; k++ {
					dst[2*k] = tile[k*npsq+n]
					dst[2*k+1] = tile[k*npsq+n+sw.MeshDim]
				}
			}
			unpack := func(n int, src []float64) {
				for k := 0; k < vl; k++ {
					tile[k*npsq+n] = src[2*k]
					tile[k*npsq+n+sw.MeshDim] = src[2*k+1]
				}
			}

			// toColumns: after the exchange, (colA, colB) hold the full
			// columns of nodes c.Row and c.Row+8.
			toColumns := func(ca, cb []float64) {
				// My own contribution.
				pack(c.Row, sendBuf)
				for k := 0; k < vl; k++ {
					ca[s+k] = sendBuf[2*k]
					cb[s+k] = sendBuf[2*k+1]
				}
				for phase := 1; phase < sw.MeshDim; phase++ {
					p := c.Row ^ phase
					pack(p, sendBuf) // partner's nodes, my levels
					c.ExchangeBlock(p, c.Col, sendBuf, recvBuf)
					for k := 0; k < vl; k++ {
						ca[p*vl+k] = recvBuf[2*k]
						cb[p*vl+k] = recvBuf[2*k+1]
					}
				}
			}
			// fromColumns is the inverse: redistribute (ca, cb) back into
			// the level-major tile.
			fromColumns := func(ca, cb []float64) {
				for k := 0; k < vl; k++ {
					sendBuf[2*k] = ca[s+k]
					sendBuf[2*k+1] = cb[s+k]
				}
				unpack(c.Row, sendBuf)
				for phase := 1; phase < sw.MeshDim; phase++ {
					p := c.Row ^ phase
					for k := 0; k < vl; k++ {
						sendBuf[2*k] = ca[p*vl+k]
						sendBuf[2*k+1] = cb[p*vl+k]
					}
					c.ExchangeBlock(p, c.Col, sendBuf, recvBuf)
					unpack(p, recvBuf)
				}
			}

			// Element le belongs to mesh column le % MeshDim, and every
			// row of a column sees the same slot sequence, so the
			// in-fabric exchanges stay paired (compare rhsAthread).
			for _, le := range slots {
				if le%sw.MeshDim != c.Col {
					continue
				}

				// dp: one contiguous DMA for the whole level block, then the
				// in-fabric transpose.
				c.DMA.Get(tile, st.DP[le][s*npsq:s*npsq+slab])
				toColumns(srcA, srcB)
				psA, psB := dycore.PTop, dycore.PTop
				for k := 0; k < nlev; k++ {
					psA += srcA[k]
					psB += srcB[k]
				}
				c.CountFlops(int64(2 * nlev))
				h.ReferenceDP(psA, refA)
				h.ReferenceDP(psB, refB)
				c.CountFlops(int64(8 * nlev))
				rwA.Prepare(srcA, refA)
				rwB.Prepare(srcB, refB)

				remapField := func(f []float64, asMass bool) {
					c.DMA.Get(tile, f[s*npsq:s*npsq+slab])
					toColumns(colA, colB)
					doCol := func(col, src, ref []float64, rw *dycore.RemapWorkspace) {
						if asMass {
							for k := 0; k < nlev; k++ {
								col[k] /= src[k]
							}
							c.CountFlops(int64(nlev))
						}
						rw.Apply(col, out)
						c.CountFlops(int64(40 * nlev))
						if asMass {
							for k := 0; k < nlev; k++ {
								col[k] = out[k] * ref[k]
							}
							c.CountFlops(int64(nlev))
						} else {
							copy(col, out)
						}
					}
					doCol(colA, srcA, refA, rwA)
					doCol(colB, srcB, refB, rwB)
					fromColumns(colA, colB)
					c.DMA.Put(f[s*npsq:s*npsq+slab], tile)
				}
				remapField(st.U[le], false)
				remapField(st.V[le], false)
				remapField(st.T[le], false)
				for q := 0; q < qsize; q++ {
					remapField(st.QdpAt(le, q), true)
				}
				// dp itself moves to the reference grid.
				fromColumns(refA, refB)
				c.DMA.Put(st.DP[le][s*npsq:s*npsq+slab], tile)
			}
		})
	})
	return en.collect(Athread, 1)
}
