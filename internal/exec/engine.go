package exec

import (
	"fmt"
	"sync"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/obs"
	"swcam/internal/sw"
)

// Engine runs kernels for one process (one MPI rank = one core group in
// the TaihuLight model) over that rank's elements.
//
// Inside the rank, the element list is tiled across a bounded pool of
// host workers (SetWorkers); each worker owns a full set of kernel
// scratch — a simulated core group for the CPE backends and the
// dycore workspace/RHS/slab buffers for the serial backends — so tiles
// execute concurrently without sharing mutable state. Tiling preserves
// the untiled element-to-CPE assignment (tiles are aligned to the CPE
// mesh width), so kernel outputs AND the collected Cost records are
// bit-identical for every worker count; see tiling.go.
type Engine struct {
	M     *mesh.Mesh
	Elems []int // global element ids owned by this rank, in local-slot order

	Np, Nlev, Qsize int

	// cor is each local element's Coriolis parameter (dycore.Coriolis),
	// computed once when the engine is built; the CPE bodies DMA it.
	cor [][]float64

	workers int
	pool    []*dynWorker

	// Tile-run coordination (see tiling.go): per-tile partials and
	// parked panics, and the launch in flight. Kernel methods are not
	// reentrant per engine, so one set of fields suffices.
	tileWG     sync.WaitGroup
	partials   []serialPartial
	tilePanics []any
	curFn      tileFn
	curSel     *ElemSubset

	// The launch in flight: its arguments, and the tile bodies that read
	// them, bound once (see launchArgs).
	args   launchArgs
	bodies tileBodies

	// The CPE lowerings' LDM plans, each built on first use (ldm.go).
	plans cpePlans

	// Subset execution (see subset.go): the identity subset every Whole
	// launch runs on, registered subsets re-tiled on SetWorkers, and the
	// deferred split accounting (Open parks, Close collects).
	allSub               *ElemSubset
	subs                 []*ElemSubset
	splitPend            bool
	pendFlops, pendBytes int64

	// Observability hooks (nil = off; see instrument.go).
	obsTr   *obs.Tracer
	obsKT   *obs.KernelTable
	obsReg  *obs.Registry
	obsRank int
	// busyNs[w] accumulates worker w's kernel-tile wall time when a
	// registry is attached (exec.dyn.worker_busy_ns.<w>).
	busyNs []*obs.Counter
	// Current kernel context for per-tile spans, set by kernelProbe on
	// the rank goroutine before tiles launch.
	curKernel, curBackend string

	// Slab-kernel launches (kernel.go): every spec's analytic flops per
	// level at this engine's np, counted once, and the bindings of the
	// launch in flight, kept here so that a launch allocates neither.
	slabFlops map[*slabSpec]int64
	bind      slabBind
}

// dynWorker is one intra-rank worker's private execution resources: a
// simulated core group (built lazily — serial-only runs never pay for
// it) plus the per-element scratch the serial kernels need. Replacing
// the engine's former single shared workspace with this pool is what
// lets tiles of one kernel run concurrently.
type dynWorker struct {
	en *Engine
	cg *sw.CoreGroup
	// The CPE launch in flight on cg: the tile's slots, and the one CPE
	// body every launch spawns, bound once in ensureCG (runCPE).
	slots     []int
	spawnBody func(*sw.CPE)

	ws  *dycore.Workspace
	rhs *dycore.RHS
	// Serial-backend scratch.
	flxU, flxV, div []float64
	gv1, gv2        []float64
	colA, colB      []float64
	colC, colD      []float64
	// Pooled slabs for the single-source kernel layer's serial lowering
	// (kernel.go): kScr backs a spec's kernel-visible scratch slots,
	// opScr the primitives' internal scratch.
	kScr  [4][]float64
	opScr [6][]float64
	// PPM scratch and prepared geometry of one column remap, live from a
	// column's Prepare to its last Apply. The strided and OpenACC CPE
	// remaps share it too: one CPE of the worker's core group runs at a
	// time, and only register communication yields (DESIGN §9.0), which
	// those lowerings never do inside a column. The §7.5 transposed remap
	// does, between fields, so it holds two workspaces per CPE in
	// cpeRWS (built on its first launch). Host-side scratch, outside the
	// LDM accounting, like the PPM coefficients always were.
	rws    *dycore.RemapWorkspace
	cpeRWS []*dycore.RemapWorkspace
	// Launch scratch of the slab lowerings (kernel.go): the serial one's,
	// and one slot per CPE for the CPE lowerings.
	serialSlab serialSlab
	cpeSlab    []cpeSlab

	// Pooled snapshot storage for the OpenACC vertical remap (the one
	// kernel that reads whole element rows while writing single values
	// back): grown once to the tile's footprint, reused afterwards.
	snapBuf                            []float64
	snapU, snapV, snapT, snapDP, snapQ [][]float64
}

func newDynWorker(en *Engine) *dynWorker {
	np, nlev := en.Np, en.Nlev
	npsq := np * np
	w := &dynWorker{
		en:   en,
		ws:   dycore.NewWorkspace(np, nlev),
		rhs:  dycore.NewRHS(np, nlev),
		flxU: make([]float64, npsq),
		flxV: make([]float64, npsq),
		div:  make([]float64, npsq),
		gv1:  make([]float64, npsq),
		gv2:  make([]float64, npsq),
		colA: make([]float64, nlev),
		colB: make([]float64, nlev),
		colC: make([]float64, nlev),
		colD: make([]float64, nlev),
		rws:  dycore.NewRemapWorkspace(nlev),
	}
	for i := range w.kScr {
		w.kScr[i] = make([]float64, npsq)
	}
	for i := range w.opScr {
		w.opScr[i] = make([]float64, npsq)
	}
	return w
}

// transposeRemapWS returns the transposed remap's per-CPE workspaces:
// CPE id's node pair (c.Row, c.Row+8) uses entries 2*id and 2*id+1.
func (w *dynWorker) transposeRemapWS(nlev int) []*dycore.RemapWorkspace {
	if w.cpeRWS == nil {
		w.cpeRWS = make([]*dycore.RemapWorkspace, 2*sw.CPEsPerCG)
		for i := range w.cpeRWS {
			w.cpeRWS[i] = dycore.NewRemapWorkspace(nlev)
		}
	}
	return w.cpeRWS
}

// ensureCG builds the worker's simulated core group (and the per-CPE
// slab scratch) on first use by a CPE backend, and binds its CPE body.
func (w *dynWorker) ensureCG() *sw.CoreGroup {
	if w.cg == nil {
		w.cg = sw.NewCoreGroup(0)
		w.cpeSlab = make([]cpeSlab, sw.CPEsPerCG)
		w.spawnBody = w.runCPE
	}
	return w.cg
}

// runCPE is the worker's CPE body: it runs the launch's lowering body
// on CPE c.
func (w *dynWorker) runCPE(c *sw.CPE) { w.en.args.cpe(w.en, w, c) }

// snapshot copies the element rows of slots from the five state field
// groups into the worker's pooled buffer, leaving row views indexed by
// position in slots in snapU, snapV, snapT, snapDP and snapQ. rowLen is
// nlev*np² (U/V/T/DP rows), qRowLen is qsize*rowLen.
func (w *dynWorker) snapshot(u, v, t, dp, q [][]float64, slots []int, rowLen, qRowLen int) {
	n := len(slots)
	need := n * (4*rowLen + qRowLen)
	if cap(w.snapBuf) < need {
		w.snapBuf = make([]float64, need)
	}
	if len(w.snapU) < n {
		w.snapU = make([][]float64, n)
		w.snapV = make([][]float64, n)
		w.snapT = make([][]float64, n)
		w.snapDP = make([][]float64, n)
		w.snapQ = make([][]float64, n)
	}
	buf := w.snapBuf[:0]
	carve := func(src []float64) []float64 {
		s := buf[len(buf) : len(buf)+len(src)]
		buf = buf[:len(buf)+len(src)]
		copy(s, src)
		return s
	}
	for i, le := range slots {
		w.snapU[i] = carve(u[le])
		w.snapV[i] = carve(v[le])
		w.snapT[i] = carve(t[le])
		w.snapDP[i] = carve(dp[le])
		w.snapQ[i] = carve(q[le])
	}
}

// NewEngine builds an engine for the given local element set with a
// single worker (the serial intra-rank path). The state passed to
// kernel methods must index elements in the same order. Call SetWorkers
// to enable tiled execution.
func NewEngine(m *mesh.Mesh, elems []int, nlev, qsize int) *Engine {
	en := &Engine{
		M: m, Elems: elems,
		Np: m.Np, Nlev: nlev, Qsize: qsize,
		slabFlops: make(map[*slabSpec]int64, len(slabSpecs)),
		cor:       make([][]float64, len(elems)),
	}
	for le, ge := range elems {
		en.cor[le] = dycore.Coriolis(m.Elements[ge])
	}
	for _, k := range slabSpecs {
		en.slabFlops[k] = k.levelFlops(m.Np)
	}
	en.bodies = tileBodies{rhs: en.rhsTile, euler: en.eulerTile, slab: en.slabTile, remap: en.remapTile,
		spawn: en.spawnTile, remapACC: en.remapACCTile}
	en.SetWorkers(1)
	return en
}

// element returns the mesh element of local slot le.
func (en *Engine) element(le int) *mesh.Element { return en.M.Elements[en.Elems[le]] }

// vlPerCPE returns the vertical-layer block size of the Figure 2
// decomposition when nlev divides evenly across the 8 mesh rows (the
// paper's 128-level case). Kernels that support uneven blocks use
// rowLevels instead.
func (en *Engine) vlPerCPE() int {
	if en.Nlev%sw.MeshDim != 0 {
		panic(fmt.Sprintf("exec: nlev %d not divisible by the %d CPE mesh rows; "+
			"the Figure 2 vertical decomposition requires it", en.Nlev, sw.MeshDim))
	}
	return en.Nlev / sw.MeshDim
}

// rowLevels returns the level range [start, start+count) owned by a mesh
// row under the generalized Figure 2 decomposition: blocks differ by at
// most one level, so any nlev (CAM's 30, the dycore benchmarks' 128)
// maps onto the 8 rows. Rows beyond nlev get empty ranges and still
// participate in the register-communication carry chains.
func (en *Engine) rowLevels(row int) (start, count int) {
	base := en.Nlev / sw.MeshDim
	rem := en.Nlev % sw.MeshDim
	count = base
	if row < rem {
		count++
	}
	start = row*base + min(row, rem)
	return start, count
}

// maxRowLevels is the largest per-row block (tile sizing).
func (en *Engine) maxRowLevels() int {
	base := en.Nlev / sw.MeshDim
	if en.Nlev%sw.MeshDim != 0 {
		base++
	}
	return base
}

// collect merges the per-worker core-group counters into one Cost and
// resets them. Counters are merged per CPE id — CPE i's events summed
// across every worker's core group — which reconstructs exactly the
// counters a single untiled core group would have accumulated, because
// tiling preserves the element-to-CPE assignment. The sum/max reduction
// then matches the untiled path bit for bit.
//
// launches is the number of athread_spawn-style parallel-region
// launches the kernel performed on the hardware being modeled: the
// host-side tiles all simulate portions of the SAME launch, so the
// count is independent of the worker pool size.
func (en *Engine) collect(b Backend, launches int64) Cost {
	var sum, max, mpe sw.PerfCounter
	for id := 0; id < sw.CPEsPerCG; id++ {
		var m sw.PerfCounter
		for _, w := range en.pool {
			if w.cg != nil {
				m.Add(&w.cg.CPEs[id].Ctr)
			}
		}
		sum.Add(&m)
		max.MaxInPlace(&m)
	}
	for _, w := range en.pool {
		if w.cg != nil {
			mpe.Add(&w.cg.MPE.Ctr)
			w.cg.ResetCounters()
		}
	}
	return Cost{
		Backend:     b,
		FlopsScalar: sum.FlopsScalar + mpe.FlopsScalar,
		FlopsVector: sum.FlopsVector,
		MaxCPEFlops: max.FlopsScalar + max.FlopsVector,
		MemBytes:    sum.DMABytes() + mpe.DMABytes(),
		DMAOps:      sum.DMAOps,
		RegMsgs:     sum.RegMsgs,
		Launches:    launches,
		LDMPeak:     max.LDMPeak,
	}
}

// serialCost builds the cost record of a serial (Intel) kernel run
// from analytic flop and byte counts.
func serialCost(flops, bytes int64) Cost {
	return Cost{Backend: Intel, FlopsScalar: flops, MaxCPEFlops: flops, MemBytes: bytes}
}
