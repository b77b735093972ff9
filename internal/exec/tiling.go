// Intra-rank tiling: each kernel invocation splits the rank's element
// list into contiguous tiles and runs them concurrently on a bounded
// pool of host workers, one private workspace (and, for the CPE
// backends, one private simulated core group) per worker.
//
// The determinism contract — tiled output bit-identical to the
// single-worker path for every backend and every worker count — rests
// on three properties:
//
//  1. Tiles are aligned to the CPE mesh width (sw.MeshDim): an
//     Athread-style block loop over a tile visits exactly the
//     (element, CPE column) pairs the untiled loop visits, so every
//     element is computed by the same simulated CPE with the same
//     arithmetic, and per-CPE counters land on the same ids.
//  2. Round-robin work-item loops (OpenACC collapse, remap columns)
//     restart per element at firstWorkItem(start, id), preserving the
//     global item → CPE assignment.
//  3. Tiles write disjoint element rows and read only their own rows
//     (the one cross-row reader, the OpenACC remap, snapshots its tile
//     first), so there are no cross-tile data flows whose order could
//     matter; per-tile partial sums and counters are gathered in fixed
//     tile order afterwards.
//  4. Per-launch setup fetches hoisted out of a kernel's work loop
//     (the broadcast derivative-matrix load) are wrapped in sw.CPE
//     Setup: every tile's core group still loads its own LDM image,
//     but only the first tile accounts the traffic, so DMA counters
//     match the untiled single spawn exactly.
package exec

import (
	"runtime"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/obs"
	"swcam/internal/sw"
)

// tile is a contiguous, MeshDim-aligned range [Lo, Hi) of local
// element slots.
type tile struct{ Lo, Hi int }

// serialPartial collects one tile's analytic flop/byte sums for the
// serial backends; padded so concurrent tiles don't share a cache line.
type serialPartial struct {
	flops, bytes int64
	_            [48]byte
}

// DefaultDynWorkers is the worker-pool size used when none is
// configured: the CPUs this process may run on (GOMAXPROCS, so a pinned
// process downshifts), capped at the CPE mesh width (tiles are
// MeshDim-aligned, so more workers than mesh-width element blocks
// rarely pay off at bench scales).
func DefaultDynWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > sw.MeshDim {
		n = sw.MeshDim
	}
	if n < 1 {
		n = 1
	}
	return n
}

// minBlocksPerWorker is the adaptive-sizing floor: a worker must own at
// least this many MeshDim-aligned element blocks before the goroutine
// launch and tile barrier pay for themselves. Below it, the measured
// BENCH history shows parallel tiling *losing* to serial (BENCH_1 ->
// BENCH_2: dyn_workers=4 cost ~10% SYPD on a small grid), so auto mode
// downshifts — to serial in the limit — instead of splitting for show.
const minBlocksPerWorker = 4

// AdaptiveWorkers returns the worker-pool size for a rank that owns
// nelems elements: at most max (<= 0 selects DefaultDynWorkers), then
// downshifted so every worker keeps >= minBlocksPerWorker aligned
// blocks. Results are bit-identical for every outcome; this knob trades
// only overhead against parallelism.
func AdaptiveWorkers(nelems, max int) int {
	if max <= 0 {
		max = DefaultDynWorkers()
	}
	blocks := (nelems + sw.MeshDim - 1) / sw.MeshDim
	w := blocks / minBlocksPerWorker
	if w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetWorkersAuto sizes the pool adaptively for this engine's local
// element count (AdaptiveWorkers with the machine default as the cap) —
// the per-rank resolution of "dyn_workers auto": big ranks fan out,
// small ranks run the inline serial fast path with coarser (whole-rank)
// tiles.
func (en *Engine) SetWorkersAuto() {
	en.SetWorkers(AdaptiveWorkers(len(en.Elems), 0))
}

// SetWorkers sizes the intra-rank worker pool to n (n <= 0 selects
// DefaultDynWorkers). Worker workspaces are allocated here, once;
// steady-state kernel calls then run without heap allocation. Not safe
// to call concurrently with kernel execution.
func (en *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = DefaultDynWorkers()
	}
	if n == en.workers && en.pool != nil {
		return
	}
	en.workers = n
	// Keep existing workers: their core-group counters hold state
	// between collects only transiently — kernels always collect before
	// returning — so shrinking the pool mid-run loses nothing.
	for len(en.pool) < n {
		en.pool = append(en.pool, newDynWorker(en))
	}
	en.pool = en.pool[:n]
	// Subset tiles are not MeshDim-aligned, so a subset can split into
	// more tiles than the aligned Whole decomposition (up to one per
	// worker); size the shared per-tile state for the pool.
	en.partials = make([]serialPartial, n)
	en.tilePanics = make([]any, n)
	if en.allSub == nil {
		ids := make([]int, len(en.Elems))
		for i := range ids {
			ids[i] = i
		}
		en.allSub = &ElemSubset{slots: ids}
	}
	// A Whole launch is the identity subset (slot i is element i) on
	// the MeshDim-aligned tiles.
	en.allSub.tiles = computeTiles(len(en.Elems), n)
	for _, s := range en.subs {
		s.retile(n)
	}
	en.bindObsRegistry()
}

// Workers reports the configured intra-rank worker-pool size.
func (en *Engine) Workers() int { return en.workers }

// Tiles reports how many element tiles kernel calls actually run
// (min(workers, aligned element blocks), and 1 when the rank is empty).
func (en *Engine) Tiles() int { return len(en.allSub.tiles) }

// computeTiles splits n elements into at most `workers` contiguous
// tiles aligned to sw.MeshDim. Alignment blocks are distributed as
// evenly as possible (counts differ by at most one), matching how the
// untiled Athread block loop strides the list. n == 0 still yields one
// empty tile so every kernel performs exactly one (empty) launch
// regardless of the pool size.
func computeTiles(n, workers int) []tile {
	if n == 0 {
		return []tile{{0, 0}}
	}
	blocks := (n + sw.MeshDim - 1) / sw.MeshDim
	nt := workers
	if nt > blocks {
		nt = blocks
	}
	tiles := make([]tile, nt)
	base, rem := blocks/nt, blocks%nt
	b := 0
	for i := range tiles {
		nb := base
		if i < rem {
			nb++
		}
		lo := b * sw.MeshDim
		b += nb
		hi := b * sw.MeshDim
		if hi > n {
			hi = n
		}
		tiles[i] = tile{lo, hi}
	}
	return tiles
}

// firstWorkItem returns the smallest work-item index >= start assigned
// to CPE id under the global round-robin distribution (item % CPEsPerCG
// == id). Item loops restricted to a tile's [start, end) range start
// here so tiling never changes which CPE computes which item.
func firstWorkItem(start, id int) int {
	r := (id - start%sw.CPEsPerCG + sw.CPEsPerCG) % sw.CPEsPerCG
	return start + r
}

// tileFn is one tile's body: it runs on worker w over the tile's slots
// and adds a serial backend's analytic sums to p.
type tileFn func(w *dynWorker, slots []int, p *serialPartial)

// launchArgs are the arguments of the launch in flight: the lowering
// sets them, launch clears them afterwards, like curFn. Tile and CPE
// bodies read them here instead of capturing them, because a closure
// that runTiles keeps in curFn, or that Spawn keeps for its CPEs,
// escapes to the heap on every launch. The bodies are method values
// bound once — the tile bodies in NewEngine (tileBodies), each worker's
// one CPE body in ensureCG (dynWorker.spawnBody) — so a launch
// allocates nothing.
type launchArgs struct {
	cur, base, out *dycore.State // rhs: out = base + dt*RHS(cur); euler and remap step cur
	dt             float64
	h              *dycore.HybridCoord // remap
	slab           *slabSpec           // slab kernels, bound through en.bind
	slabLDM        *slabLDM            // the CPE slab lowerings' plan for slab
	cpe            cpeBody             // CPE lowerings: what every CPE of every tile runs
}

// cpeBody is a CPE lowering's body: CPE c of worker w's core group runs
// it over the tile's slots (w.slots). Lowerings pass a method
// expression, which is a static function value.
type cpeBody func(en *Engine, w *dynWorker, c *sw.CPE)

// tileBodies are the engine's tile bodies as method values: the serial
// lowerings', and spawnTile and remapACCTile for the CPE lowerings.
type tileBodies struct{ rhs, euler, slab, remap, spawn, remapACC tileFn }

// launch runs a tile body over sel with the launch's arguments.
func (en *Engine) launch(sel *ElemSubset, fn tileFn, args launchArgs) (flops, bytes int64) {
	en.args = args
	flops, bytes = en.runTiles(sel, fn)
	en.args = launchArgs{}
	return flops, bytes
}

// runCPE runs a CPE lowering over sel: each tile's core group spawns
// args.cpe over the tile's slots, with the setup fetch muted as armCGs
// says.
func (en *Engine) runCPE(sel *ElemSubset, replayAll bool, args launchArgs) {
	en.armCGs(sel, replayAll)
	en.launch(sel, en.bodies.spawn, args)
}

// spawnTile is the CPE lowerings' tile body.
func (en *Engine) spawnTile(w *dynWorker, slots []int, _ *serialPartial) {
	w.slots = slots
	w.cg.Spawn(w.spawnBody)
	w.slots = nil
}

// runTiles is the one tile runner: it runs fn over every tile of sel on
// the worker pool, handing each tile its worker (private scratch, and
// for the CPE lowerings the private core group w.cg), the tile's slice
// of the slot list, and a partial for the serial backends' analytic
// sums, which are returned accumulated in fixed tile order. A Whole
// launch passes the identity subset, whose tiles are the MeshDim-aligned
// decomposition; Open/Close launches pass a compiled subset. With one
// tile the call is inline on the caller's goroutine — the zero-overhead,
// zero-allocation serial path; otherwise a tile panic is parked and
// re-raised here, on the rank goroutine, where the mpirt runtime's
// failure handling expects kernel faults to surface.
func (en *Engine) runTiles(sel *ElemSubset, fn tileFn) (flops, bytes int64) {
	n := len(sel.tiles)
	for i := 0; i < n; i++ {
		en.partials[i] = serialPartial{}
	}
	en.curFn, en.curSel = fn, sel
	if n == 1 {
		en.runTile(0)
	} else {
		en.tileWG.Add(n)
		for i := 1; i < n; i++ {
			go en.runTileParked(i)
		}
		en.runTileParked(0)
		en.tileWG.Wait()
	}
	en.curFn, en.curSel = nil, nil
	for i := 0; i < n; i++ {
		if p := en.tilePanics[i]; p != nil {
			en.tilePanics[i] = nil
			panic(p)
		}
		flops += en.partials[i].flops
		bytes += en.partials[i].bytes
	}
	return flops, bytes
}

// runTile executes tile i of the current launch on worker i.
func (en *Engine) runTile(i int) {
	sp, start := en.tileObsStart(i)
	t := en.curSel.tiles[i]
	en.curFn(en.pool[i], en.curSel.slots[t.Lo:t.Hi], &en.partials[i])
	en.tileObsEnd(i, sp, start)
}

// runTileParked is runTile for a multi-tile launch: a panic is parked
// for the coordinating goroutine to re-raise.
func (en *Engine) runTileParked(i int) {
	defer en.tileWG.Done()
	defer func() { en.tilePanics[i] = recover() }()
	en.runTile(i)
}

// armCGs readies the core groups a CPE launch over sel runs on: built
// on first use, with the hoisted per-launch setup fetch muted on every
// tile but the first — and on the first too when replayAll (the Close
// half of a split: the Open half already accounted it).
func (en *Engine) armCGs(sel *ElemSubset, replayAll bool) {
	for i := range sel.tiles {
		en.pool[i].ensureCG().SetReplaySetup(replayAll || i != 0)
	}
}

// tileObsStart opens a per-tile trace span (tid = worker slot + 1, so
// worker utilization reads directly off the trace timeline next to the
// rank's tid-0 kernel spans) and a busy-time stamp when observation is
// attached; both are no-ops — and allocation-free — otherwise.
func (en *Engine) tileObsStart(i int) (sp obs.Span, start time.Time) {
	if en.obsTr == nil && en.busyNs == nil {
		return obs.Span{}, time.Time{}
	}
	if en.obsTr != nil {
		sp = en.obsTr.BeginTid(en.obsRank, i+1, en.curKernel+".tile", en.curBackend)
	}
	return sp, time.Now()
}

func (en *Engine) tileObsEnd(i int, sp obs.Span, start time.Time) {
	sp.End()
	if en.busyNs != nil && i < len(en.busyNs) && !start.IsZero() {
		en.busyNs[i].Add(time.Since(start).Nanoseconds())
	}
}
