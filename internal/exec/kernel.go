// Single-source kernel layer: each per-level slab kernel is written
// ONCE against a small primitive vocabulary (slabOps) and *lowered*
// onto the three backends, instead of being hand-written
// once per backend and subset. The copies had already drifted — the DP2
// update was modeled as 12·np² scalar flops on OpenACC but 8·np²
// vector flops on Athread and 16·np² in the serial analytic formula —
// so the rule enforced here is structural: flop/byte attribution lives
// ONLY in the primitives, never in a lowering or a kernel body.
//
// The vocabulary (slabOps) is the set of per-level slab operations the
// Table-1 dissipation kernels need:
//
//	VecLaplace  sphere-correct vector Laplacian of (u,v)
//	Laplace     scalar Laplacian
//	AxpyUpdate  dst -= coef*src, coef hoisted to launch scope
//
// Each primitive carries exactly one flop attribution, shared by every
// lowering: the analytic formulas in flops.go (counted by countSlabOps
// for the serial backends and charged per call by the OpenACC
// lowering) and the CountVecFlops calls inside the vecops.go slab
// functions (the Athread lowering). A kernel is a slabSpec: buffer
// shape (inputs, outputs, scratch, whether the metric needs D for the
// vector Laplacian, whether outputs are read-modify-write) plus a body
// that calls primitives. The three lowerings reproduce the cost
// semantics of the hand-written kernels they replaced:
//
//   - Intel (lowerSlabSerial): one host core runs the dycore
//     scalar slabs in place over state rows; flops are the spec's
//     primitive-derived analytic count, bytes the compulsory traffic
//     8·np²·nlev·(nIn+nOut) per element.
//   - OpenACC (slabOpenACCCPE): (element, level) items round-robin
//     over the 64 CPEs (firstWorkItem preserves the assignment under
//     tiling); every item re-fetches metric and fields into the same
//     LDM buffers — the directive compiler cannot hoist a copyin out
//     of a collapsed loop — then runs the scalar slabs and charges the
//     same analytic counts the serial lowering uses.
//   - Athread (slabAthreadCPE): elements map to mesh columns
//     (le % MeshDim), levels split across rows (rowLevels), the metric
//     stays resident per element (fetched even for rows with zero
//     levels — the hand-written kernels did, and counter parity is
//     part of the contract), the derivative matrix is a per-launch
//     broadcast inside c.Setup, and the body runs the Vec4 slab ops.
//
// Every lowering launches through the one tile runner (tiling.go) on a
// compiled slot list, so the boundary/inner split and the Open/Close
// deferred cost accounting (subset.go) come for free; a Whole launch
// is the identity subset on the MeshDim-aligned tiles.
package exec

import (
	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// slabOps is the primitive vocabulary a slab-kernel body is written
// against. Implementations exist per lowering (serial, OpenACC,
// Athread) plus a counting implementation that derives the analytic
// per-level flop attribution from the body itself.
type slabOps interface {
	// VecLaplace computes the sphere-correct vector Laplacian of
	// (u, v) into (lu, lv). Attribution: vecLapFlops(np).
	VecLaplace(u, v, lu, lv []float64)
	// Laplace computes the scalar Laplacian of src into out.
	// Attribution: lapFlops(np).
	Laplace(src, out []float64)
	// AxpyUpdate applies dst -= coef*src. coef is a launch-scope
	// scalar (e.g. dt*nu), multiplied in hoisted form — the
	// coefficient product is NOT part of the per-point work.
	// Attribution: axpyFlops(np) = 2·np² (one multiply, one subtract
	// per point).
	AxpyUpdate(dst []float64, coef float64, src []float64)
}

// slabIO carries one level's buffer bindings into a kernel body: input
// slabs, output slabs, kernel-owned scratch slabs, and the hoisted
// scalar coefficients. Fixed-size arrays keep the per-level rebinding
// allocation-free.
type slabIO struct {
	in, out, scr [4][]float64
	coef         [2]float64
}

// slabSpec is one kernel, written once: its buffer shape and its body.
// The lowerings derive everything else — LDM layout, DMA schedule,
// flop/byte accounting — from these fields, so adding a kernel means
// writing exactly one body.
type slabSpec struct {
	name string
	// nIn inputs are fetched per level; nOut outputs are written back
	// per level; nScr scratch slabs are kernel-visible (bodies that
	// need intermediates, like DP2's laplacians-then-update).
	nIn, nOut, nScr int
	// needVec stages the covariant metric D (used by the vector
	// Laplacian) and sizes the primitive-internal scratch at 6 slabs
	// instead of 4.
	needVec bool
	// rmw marks outputs as read-modify-write: the CPE lowerings fetch
	// them before the body runs (the serial lowering updates in
	// place).
	rmw  bool
	body func(p slabOps, io *slabIO)
}

// opScratch is the primitive-internal scratch slab count: the vector
// Laplacian needs 6, the scalar chain 4.
func (k *slabSpec) opScratch() int {
	if k.needVec {
		return 6
	}
	return 4
}

// countSlabOps derives the analytic per-level flop count of a body by
// running it against the attribution constants alone. This is the ONE
// place serial flops come from, and the OpenACC lowering charges the
// same constants per primitive call — a count can no longer exist in
// one backend and not another.
type countSlabOps struct {
	np    int
	flops int64
}

func (c *countSlabOps) VecLaplace(u, v, lu, lv []float64) { c.flops += vecLapFlops(c.np) }
func (c *countSlabOps) Laplace(src, out []float64)        { c.flops += lapFlops(c.np) }
func (c *countSlabOps) AxpyUpdate(dst []float64, coef float64, src []float64) {
	c.flops += axpyFlops(c.np)
}

// levelFlops is the spec's analytic flop count for one np×np level.
func (k *slabSpec) levelFlops(np int) int64 {
	c := countSlabOps{np: np}
	var io slabIO
	k.body(&c, &io)
	return c.flops
}

// serialBytes is the compulsory main-memory traffic per element for
// the serial backends: every input read once, every output written
// once (rmw outputs are counted once, like the hand-written kernels
// and hypervisBytes always did).
func (k *slabSpec) serialBytes(np, nlev int) int64 {
	return int64(sw.F64Bytes * np * np * nlev * (k.nIn + k.nOut))
}

// ---------------------------------------------------------------------------
// Kernel specs: the three dissipation kernels, each written exactly once.
// ---------------------------------------------------------------------------

// hypervisDP1Spec: first hyperviscosity pass — pure Laplacians of the
// four prognostic fields (u, v vector; T, dp scalar).
var hypervisDP1Spec = slabSpec{
	name: "hypervis_dp1",
	nIn:  4, nOut: 4, nScr: 0,
	needVec: true,
	body: func(p slabOps, io *slabIO) {
		p.VecLaplace(io.in[0], io.in[1], io.out[0], io.out[1])
		p.Laplace(io.in[2], io.out[2])
		p.Laplace(io.in[3], io.out[3])
	},
}

// hypervisDP2Spec: second pass + update. Laplacians of the DSS'd first
// pass land in kernel scratch, then each field is damped with the
// hoisted coefficient (coef[0] = dt*nuV for momentum, coef[1] = dt*nuS
// for scalars). The update cost — 4 fields × axpyFlops = 8·np² per
// level — exists only here, via the AxpyUpdate primitive.
var hypervisDP2Spec = slabSpec{
	name: "hypervis_dp2",
	nIn:  4, nOut: 4, nScr: 4,
	needVec: true,
	rmw:     true,
	body: func(p slabOps, io *slabIO) {
		p.VecLaplace(io.in[0], io.in[1], io.scr[0], io.scr[1])
		p.Laplace(io.in[2], io.scr[2])
		p.Laplace(io.in[3], io.scr[3])
		p.AxpyUpdate(io.out[0], io.coef[0], io.scr[0])
		p.AxpyUpdate(io.out[1], io.coef[0], io.scr[1])
		p.AxpyUpdate(io.out[2], io.coef[1], io.scr[2])
		p.AxpyUpdate(io.out[3], io.coef[1], io.scr[3])
	},
}

// biharmonicDP3DSpec: one scalar Laplacian pass on the layer thickness.
var biharmonicDP3DSpec = slabSpec{
	name: "biharmonic_dp3d",
	nIn:  1, nOut: 1, nScr: 0,
	body: func(p slabOps, io *slabIO) {
		p.Laplace(io.in[0], io.out[0])
	},
}

// slabSpecs lists every slab kernel, so that an engine can count each
// one's flops once.
var slabSpecs = [...]*slabSpec{&hypervisDP1Spec, &hypervisDP2Spec, &biharmonicDP3DSpec}

// slabBind binds one kernel invocation to its element-row arrays and
// hoisted coefficients. in[i][le] / out[i][le] are level-major rows.
type slabBind struct {
	in, out [4][][]float64
	coef    [2]float64
}

// lowerSlab dispatches a slab kernel, bound in en.bind, to its backend
// lowering. The caller has already run beginLaunch.
func (en *Engine) lowerSlab(k *slabSpec, sub Subset, b Backend) Cost {
	switch b {
	case Intel:
		return en.lowerSlabSerial(k, sub)
	case OpenACC:
		return en.lowerSlabCPE(k, sub, OpenACC, (*Engine).slabOpenACCCPE)
	case Athread:
		return en.lowerSlabCPE(k, sub, Athread, (*Engine).slabAthreadCPE)
	}
	panic("exec: unknown backend")
}

// LDM buffer names, for the plan's overflow diagnostics.
var (
	slabInNames  = [4]string{"in0", "in1", "in2", "in3"}
	slabOutNames = [4]string{"out0", "out1", "out2", "out3"}
	slabScrNames = [4]string{"scr0", "scr1", "scr2", "scr3"}
	slabOpNames  = [6]string{"op0", "op1", "op2", "op3", "op4", "op5"}
)

// ---------------------------------------------------------------------------
// Serial lowering (Intel)
// ---------------------------------------------------------------------------

// serialSlabOps runs the primitives with the dycore scalar slab
// operators directly on main-memory rows, using the worker's pooled
// scratch. No per-call attribution: serial flops are the spec's
// analytic count, summed per element by the lowering.
type serialSlabOps struct {
	w  *dynWorker
	op dycore.Operators // the element's, set once per element
}

// serialSlab is a worker's scratch for a serial slab launch. Like
// cpeSlab, it lives in the worker because the body takes it by pointer
// through an indirect call, which would heap-allocate it once per tile
// per launch as a local.
type serialSlab struct {
	ops serialSlabOps
	io  slabIO
}

func (s *serialSlabOps) VecLaplace(u, v, lu, lv []float64) {
	w := s.w
	s.op.VecLaplace(u, v, lu, lv, w.opScr[0], w.opScr[1], w.opScr[2], w.opScr[3], w.opScr[4], w.opScr[5])
}

func (s *serialSlabOps) Laplace(src, out []float64) {
	w := s.w
	s.op.Laplace(src, out, w.opScr[0], w.opScr[1], w.opScr[2], w.opScr[3])
}

func (s *serialSlabOps) AxpyUpdate(dst []float64, coef float64, src []float64) {
	for n := range dst {
		dst[n] -= coef * src[n]
	}
}

// lowerSlabSerial runs k over the subset with the bindings in en.bind,
// the one binding slot every slab launch uses.
func (en *Engine) lowerSlabSerial(k *slabSpec, sub Subset) Cost {
	flops, bytes := en.launch(en.sel(sub), en.bodies.slab, launchArgs{slab: k})
	return en.serialSplit(sub.Phase, flops, bytes)
}

// slabTile is lowerSlabSerial's tile body.
func (en *Engine) slabTile(w *dynWorker, slots []int, p *serialPartial) {
	k, bind := en.args.slab, &en.bind
	np, nlev := en.Np, en.Nlev
	npsq := np * np
	perElemFlops := en.slabFlops[k] * int64(nlev)
	perElemBytes := k.serialBytes(np, nlev)
	w.serialSlab = serialSlab{ops: serialSlabOps{w: w}, io: slabIO{coef: bind.coef}}
	ops, io := &w.serialSlab.ops, &w.serialSlab.io
	for i := 0; i < k.nScr; i++ {
		io.scr[i] = w.kScr[i]
	}
	for _, le := range slots {
		e := en.element(le)
		ops.op.Set(np, e.DAlpha, en.M.DerivFlat, e.DinvFlat, e.DFlat, e.Metdet)
		for lev := 0; lev < nlev; lev++ {
			o := lev * npsq
			for i := 0; i < k.nIn; i++ {
				io.in[i] = bind.in[i][le][o : o+npsq]
			}
			for i := 0; i < k.nOut; i++ {
				io.out[i] = bind.out[i][le][o : o+npsq]
			}
			k.body(ops, io)
		}
		p.flops += perElemFlops
		p.bytes += perElemBytes
	}
}

// ---------------------------------------------------------------------------
// OpenACC lowering: per-(element, level) re-fetch, scalar slabs
// ---------------------------------------------------------------------------

// cpeSlabOps is what the primitives of both CPE lowerings work on: the
// CPE, its LDM images of the derivative matrix and the element metric,
// and the primitive-internal scratch slabs.
type cpeSlabOps struct {
	c                          *sw.CPE
	np                         int
	deriv, dinv, dflat, metdet []float64
	op                         dycore.Operators // over the LDM metric, set per element
	scr                        [6][]float64
}

// cpeSlab is one CPE's scratch for a CPE slab launch. The body takes
// its primitives and bindings by pointer through an indirect call, so
// as locals of the CPE body they would be heap-allocated once per CPE
// per launch; they live in the worker instead (dynWorker.cpeSlab, one
// slot per CPE, reset by the CPE when its launch starts).
type cpeSlab struct {
	ops cpeSlabOps
	io  slabIO
}

// cpeSlabFor resets CPE c's slot for a launch with coefficients coef.
func (w *dynWorker) cpeSlabFor(c *sw.CPE, np int, coef [2]float64) *cpeSlab {
	sl := &w.cpeSlab[c.ID]
	*sl = cpeSlab{ops: cpeSlabOps{c: c, np: np}, io: slabIO{coef: coef}}
	return sl
}

// accSlabOps runs the primitives with the dycore scalar slabs on LDM
// tiles and charges each primitive's analytic attribution on the CPE —
// the same constants countSlabOps sums for the serial backends.
type accSlabOps cpeSlabOps

func (a *accSlabOps) VecLaplace(u, v, lu, lv []float64) {
	a.op.VecLaplace(u, v, lu, lv, a.scr[0], a.scr[1], a.scr[2], a.scr[3], a.scr[4], a.scr[5])
	a.c.CountFlops(vecLapFlops(a.np))
}

func (a *accSlabOps) Laplace(src, out []float64) {
	a.op.Laplace(src, out, a.scr[0], a.scr[1], a.scr[2], a.scr[3])
	a.c.CountFlops(lapFlops(a.np))
}

func (a *accSlabOps) AxpyUpdate(dst []float64, coef float64, src []float64) {
	for n := range dst {
		dst[n] -= coef * src[n]
	}
	a.c.CountFlops(axpyFlops(a.np))
}

// lowerSlabCPE runs body, one of the CPE slab lowerings, over the
// subset with the bindings in en.bind.
func (en *Engine) lowerSlabCPE(k *slabSpec, sub Subset, b Backend, body cpeBody) Cost {
	en.runCPE(en.sel(sub), sub.Phase == Close,
		launchArgs{slab: k, slabLDM: en.slabPlan(k, b), cpe: body})
	return en.collectSplit(b, sub.Phase)
}

// slabLDM is the LDM plan of both CPE lowerings of one slab spec: the
// derivative matrix and element metric, the spec's input, output and
// kernel-visible scratch slabs, and the primitives' internal scratch.
type slabLDM struct {
	sw.LDMPlan
	deriv, dinv, dflat, metdet sw.LDMBuf
	in, out, scr               [4]sw.LDMBuf
	op                         [6]sw.LDMBuf
}

func newSlabLDM(k *slabSpec, np int) *slabLDM {
	npsq := np * np
	l := &slabLDM{}
	p := &l.LDMPlan
	l.deriv = p.Add("deriv", npsq)
	l.dinv = p.Add("dinv", 4*npsq)
	if k.needVec {
		l.dflat = p.Add("dflat", 4*npsq)
	}
	l.metdet = p.Add("metdet", npsq)
	for i := 0; i < k.nIn; i++ {
		l.in[i] = p.Add(slabInNames[i], npsq)
	}
	for i := 0; i < k.nOut; i++ {
		l.out[i] = p.Add(slabOutNames[i], npsq)
	}
	for i := 0; i < k.nScr; i++ {
		l.scr[i] = p.Add(slabScrNames[i], npsq)
	}
	for i := 0; i < k.opScratch(); i++ {
		l.op[i] = p.Add(slabOpNames[i], npsq)
	}
	return l
}

// loadSlab lays the launch's slab plan over CPE c's LDM and returns c's
// slab scratch with every buffer bound to its view.
func (en *Engine) loadSlab(w *dynWorker, c *sw.CPE) *cpeSlab {
	k, l := en.args.slab, en.args.slabLDM
	ldm := c.LDM
	ldm.Load(&l.LDMPlan)
	sl := w.cpeSlabFor(c, en.Np, en.bind.coef)
	ops, io := &sl.ops, &sl.io
	ops.deriv, ops.dinv, ops.metdet = ldm.View(l.deriv), ldm.View(l.dinv), ldm.View(l.metdet)
	if k.needVec {
		ops.dflat = ldm.View(l.dflat)
	}
	for i := 0; i < k.nIn; i++ {
		io.in[i] = ldm.View(l.in[i])
	}
	for i := 0; i < k.nOut; i++ {
		io.out[i] = ldm.View(l.out[i])
	}
	for i := 0; i < k.nScr; i++ {
		io.scr[i] = ldm.View(l.scr[i])
	}
	for i := 0; i < k.opScratch(); i++ {
		ops.scr[i] = ldm.View(l.op[i])
	}
	return sl
}

// slabOpenACCCPE is the OpenACC slab lowering's CPE body: every
// (element, level) item re-fetches the metric and its fields.
func (en *Engine) slabOpenACCCPE(w *dynWorker, c *sw.CPE) {
	k, bind := en.args.slab, &en.bind
	nlev := en.Nlev
	npsq := en.Np * en.Np
	sl := en.loadSlab(w, c)
	ops, io := (*accSlabOps)(&sl.ops), &sl.io
	for _, le := range w.slots {
		for it := firstWorkItem(le*nlev, c.ID); it < (le+1)*nlev; it += sw.CPEsPerCG {
			e := en.element(le)
			o := (it % nlev) * npsq
			c.DMA.GetShared(ops.deriv, en.M.DerivFlat)
			c.DMA.Get(ops.dinv, e.DinvFlat)
			if k.needVec {
				c.DMA.Get(ops.dflat, e.DFlat)
			}
			c.DMA.Get(ops.metdet, e.Metdet)
			ops.op.Set(ops.np, e.DAlpha, ops.deriv, ops.dinv, ops.dflat, ops.metdet)
			for i := 0; i < k.nIn; i++ {
				c.DMA.Get(io.in[i], bind.in[i][le][o:o+npsq])
			}
			if k.rmw {
				for i := 0; i < k.nOut; i++ {
					c.DMA.Get(io.out[i], bind.out[i][le][o:o+npsq])
				}
			}
			k.body(ops, io)
			for i := 0; i < k.nOut; i++ {
				c.DMA.Put(bind.out[i][le][o:o+npsq], io.out[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Athread lowering: element per column, levels per row, resident
// metric, Vec4 slabs
// ---------------------------------------------------------------------------

// athSlabOps runs the primitives with the vector-charged vecops.go slabs,
// which carry their own CountVecFlops attribution; the update is the
// one primitive implemented here, with the Splat of the hoisted
// coefficient at slab scope (once per call, not once per row).
type athSlabOps cpeSlabOps

func (a *athSlabOps) VecLaplace(u, v, lu, lv []float64) {
	vecLaplaceSlabVec4(a.c, &a.op, u, v, lu, lv, a.scr[0], a.scr[1], a.scr[2], a.scr[3], a.scr[4], a.scr[5])
}

func (a *athSlabOps) Laplace(src, out []float64) {
	laplaceSlabVec4(a.c, &a.op, src, out, a.scr[0], a.scr[1], a.scr[2], a.scr[3])
}

func (a *athSlabOps) AxpyUpdate(dst []float64, coef float64, src []float64) {
	cv := sw.Splat(coef)
	for j := 0; j < a.np; j++ {
		sw.LoadVec4(dst, 4*j).Sub(cv.Mul(sw.LoadVec4(src, 4*j))).Store(dst, 4*j)
	}
	a.c.CountVecFlops(axpyFlops(a.np))
}

// slabAthreadCPE is the Athread slab lowering's CPE body.
func (en *Engine) slabAthreadCPE(w *dynWorker, c *sw.CPE) {
	k, bind := en.args.slab, &en.bind
	npsq := en.Np * en.Np
	s, vl := en.rowLevels(c.Row)
	sl := en.loadSlab(w, c)
	ops, io := (*athSlabOps)(&sl.ops), &sl.io
	c.Setup(func() { c.DMA.GetShared(ops.deriv, en.M.DerivFlat) })
	for _, le := range w.slots {
		if le%sw.MeshDim != c.Col {
			continue
		}
		e := en.element(le)
		// The metric is fetched per owned element even when this row
		// holds zero levels: the element/column DMA schedule is
		// independent of the vertical split.
		c.DMA.Get(ops.dinv, e.DinvFlat)
		if k.needVec {
			c.DMA.Get(ops.dflat, e.DFlat)
		}
		c.DMA.Get(ops.metdet, e.Metdet)
		ops.op.Set(ops.np, e.DAlpha, ops.deriv, ops.dinv, ops.dflat, ops.metdet)
		for lev := s; lev < s+vl; lev++ {
			o := lev * npsq
			for i := 0; i < k.nIn; i++ {
				c.DMA.Get(io.in[i], bind.in[i][le][o:o+npsq])
			}
			if k.rmw {
				for i := 0; i < k.nOut; i++ {
					c.DMA.Get(io.out[i], bind.out[i][le][o:o+npsq])
				}
			}
			k.body(ops, io)
			for i := 0; i < k.nOut; i++ {
				c.DMA.Put(bind.out[i][le][o:o+npsq], io.out[i])
			}
		}
	}
}
