// Element-subset execution: the §7.6 boundary-first split. A kernel
// that precedes a DSS can run in two launches — the rank's boundary
// elements first (Open), then, while the halo exchange is in flight,
// the interior elements (Close) — instead of one launch over every
// element (Whole). The split composes with the intra-rank tiling layer
// and keeps both the computed state and the collected Cost records
// bit-identical to the unsplit kernel:
//
//   - State: the split kernels are element-local (each element reads
//     and writes only its own rows), and Open/Close cover disjoint
//     slot sets whose union is the rank, so the order of the two
//     launches cannot change any value.
//   - Element -> CPE assignment: work distribution is per element
//     (le % MeshDim selects the Athread mesh column; work-item index
//     % CPEsPerCG selects the OpenACC CPE), independent of tile and
//     launch boundaries, so every element is computed by the same
//     simulated CPE with the same arithmetic in every split.
//   - Cost: Open defers collection — serial analytic sums are parked
//     on the engine and core-group counters stay accumulated — and
//     Close performs the one merge, so sum/max reductions
//     (MaxCPEFlops, LDMPeak) and the launch count see the whole
//     kernel at once, exactly like the unsplit path.
//   - Per-launch setup DMA: Open replays tiles 1+ like the unsplit
//     path (its tile 0 accounts the hoisted setup fetch once); Close
//     replays every tile, so the setup traffic is accounted exactly
//     once across the pair. An empty Open subset still performs one
//     empty launch for the same reason.
package exec

// SplitPhase selects how a kernel invocation relates to the
// boundary/interior split of a DSS-preceding kernel. The zero value is a
// Whole launch: the kernel over every element in one launch.
type SplitPhase int

const (
	// Open runs the boundary half: cost collection is deferred to the
	// matching Close on the same engine.
	Open SplitPhase = iota + 1
	// Close runs the interior half and collects the full kernel cost.
	Close
)

// Subset selects the elements a kernel invocation covers. The zero
// value (nil Sel, Whole phase) reproduces the unsplit kernel exactly.
type Subset struct {
	Sel   *ElemSubset
	Phase SplitPhase
}

// suffix is the kernel-name suffix for observability: split launches
// show up as separate KernelTable rows / trace spans.
func (s Subset) suffix() string {
	switch s.Phase {
	case Open:
		return ".boundary"
	case Close:
		return ".inner"
	}
	return ""
}

// ElemSubset is a compiled list of local element slots plus its tile
// decomposition over the engine's worker pool. Build one with
// Engine.CompileSubset; the engine re-tiles registered subsets whenever
// SetWorkers reshapes the pool.
type ElemSubset struct {
	slots []int
	tiles []tile // index ranges into slots, one tile per worker
}

// Slots returns the subset's local element slots (callers must not
// mutate the returned slice).
func (s *ElemSubset) Slots() []int { return s.slots }

func (s *ElemSubset) retile(workers int) {
	s.tiles = computeSubsetTiles(len(s.slots), workers)
}

// CompileSubset registers a slot list with the engine and returns its
// compiled form. The slots are copied; they need not be sorted or
// contiguous — the element -> CPE assignment is per element, so any
// slot list executes bit-identically to the same slots inside a Whole
// run.
func (en *Engine) CompileSubset(slots []int) *ElemSubset {
	s := &ElemSubset{slots: append([]int(nil), slots...)}
	s.retile(en.workers)
	en.subs = append(en.subs, s)
	return s
}

// computeSubsetTiles splits n slot indices into at most `workers`
// contiguous index ranges. Unlike the identity subset's tiles these need
// no MeshDim alignment: tiles partition an arbitrary slot list, and the
// per-element CPE assignment is independent of where tiles start.
// n == 0 still yields one empty tile so an empty subset performs
// exactly one (empty) launch — keeping the split's setup-DMA and
// launch accounting identical to the unsplit kernel.
func computeSubsetTiles(n, workers int) []tile {
	if n == 0 {
		return []tile{{0, 0}}
	}
	nt := workers
	if nt > n {
		nt = n
	}
	tiles := make([]tile, nt)
	base, rem := n/nt, n%nt
	lo := 0
	for i := range tiles {
		hi := lo + base
		if i < rem {
			hi++
		}
		tiles[i] = tile{lo, hi}
		lo = hi
	}
	return tiles
}

// sel resolves a Subset to its compiled slot list (nil = the whole
// rank).
func (en *Engine) sel(sub Subset) *ElemSubset {
	if sub.Sel != nil {
		return sub.Sel
	}
	return en.allSub
}

// beginLaunch enforces the Open/Close pairing at every kernel
// dispatch. A stale Open — a previous split aborted between its halves
// (a transport fault unwound the rank mid-overlap) — leaves parked
// serial sums and accumulated core-group counters that would poison
// the next collect; they are discarded here so a recovered rank starts
// its replayed step from clean accounting.
func (en *Engine) beginLaunch(sub Subset) {
	if sub.Phase == Close {
		if !en.splitPend {
			panic("exec: Close split phase without a preceding Open on this engine")
		}
		return
	}
	if en.splitPend {
		en.splitPend = false
		en.pendFlops, en.pendBytes = 0, 0
		for _, w := range en.pool {
			if w.cg != nil {
				w.cg.ResetCounters()
			}
		}
	}
}

// serialSplit folds a serial backend's analytic sums through the split
// accounting: Open parks them, Close reports the pair as one kernel.
func (en *Engine) serialSplit(ph SplitPhase, flops, bytes int64) Cost {
	switch ph {
	case Open:
		en.splitPend = true
		en.pendFlops, en.pendBytes = flops, bytes
		return Cost{Backend: Intel}
	case Close:
		en.splitPend = false
		flops += en.pendFlops
		bytes += en.pendBytes
		en.pendFlops, en.pendBytes = 0, 0
		return serialCost(flops, bytes)
	}
	return serialCost(flops, bytes)
}

// collectSplit folds a CPE backend's counter collection through the
// split accounting: Open leaves the per-worker core-group counters
// accumulated (no collect, no reset), Close merges both halves in one
// collect — so MaxCPEFlops and LDMPeak reduce over per-CPE totals of
// the whole kernel and the launch count stays 1, exactly as unsplit.
func (en *Engine) collectSplit(b Backend, ph SplitPhase) Cost {
	switch ph {
	case Open:
		en.splitPend = true
		return Cost{Backend: b}
	case Close:
		en.splitPend = false
		return en.collect(b, 1)
	}
	return en.collect(b, 1)
}
