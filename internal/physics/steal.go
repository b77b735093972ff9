// Work-stealing column scheduler: physics columns are embarrassingly
// parallel, but their cost is not uniform — convection triggers only
// where CAPE exceeds the threshold, so a static chunking can leave one
// worker grinding through a storm track while the rest idle (the
// imbalanced-column problem of the Xeon-Phi convection port,
// arXiv:1711.00289). The pool hands each worker a contiguous range of
// chunks up front and lets idle workers steal the far half of a
// victim's remaining range, so imbalance costs one steal instead of a
// serialized tail.
//
// A deque here is a single packed 64-bit word (hi<<32 | lo) holding the
// worker's remaining chunk range [lo, hi). The owner pops lo with a
// CAS; a thief CASes the top half [mid, hi) away, executes mid, and
// stores the rest as its own (empty) deque's new range. Correctness
// does not need ABA protection: a CAS succeeds only when the word
// currently equals the loaded value, and every transition is a pure
// function of that value which removes a subrange of the range the word
// *currently* encodes — chunks present in the live word are by
// construction pending, so a successful CAS always removes pending
// chunks exactly once. Ranges are stored only into the thief's own
// empty deque (nothing is overwritten), so no chunk is lost either.
//
// Determinism: the pool only decides *who* runs a chunk and *when* —
// what each chunk computes, and how per-chunk results are merged, is
// the caller's business. Callers that store per-chunk partials and
// merge them in ascending chunk order get results bit-identical to
// serial for every worker count and every steal schedule (see
// core.Model.applyPhysics).
package physics

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swcam/internal/obs"
	"swcam/internal/parked"
)

// DefaultStealWorkers is the pool size used for "auto" (-phys-workers
// 0): one worker per CPU this process may run on (GOMAXPROCS, so a
// pinned process downshifts), capped so toy configurations don't drown
// in goroutine overhead.
func DefaultStealWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// dequeSlot is one worker's range deque: a packed [lo, hi) chunk range
// in a single atomic word, padded to a cache line so neighbouring
// workers' CASes don't false-share.
type dequeSlot struct {
	bits atomic.Uint64
	_    [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(uint32(hi))<<32 | uint64(uint32(lo)) }

func unpackRange(b uint64) (lo, hi int) { return int(uint32(b)), int(uint32(b >> 32)) }

// pop takes the owner's next chunk from the bottom of the range.
func (d *dequeSlot) pop() (int, bool) {
	for {
		b := d.bits.Load()
		lo, hi := unpackRange(b)
		if lo >= hi {
			return 0, false
		}
		if d.bits.CompareAndSwap(b, packRange(lo+1, hi)) {
			return lo, true
		}
	}
}

// stealHalf removes the top half (rounded up, so a 1-chunk range is
// stealable) of the victim's range and returns it.
func (d *dequeSlot) stealHalf() (lo, hi int, ok bool) {
	for {
		b := d.bits.Load()
		l, h := unpackRange(b)
		n := h - l
		if n <= 0 {
			return 0, 0, false
		}
		mid := h - (n+1)/2
		if d.bits.CompareAndSwap(b, packRange(l, mid)) {
			return mid, h, true
		}
	}
}

// workerStats is one worker's per-run ledger, padded to a cache line.
type workerStats struct {
	chunks   int64
	steals   int64
	attempts int64
	busyNs   int64
	_        [32]byte
}

// StealStats is a snapshot of a pool's cumulative activity.
type StealStats struct {
	Runs          int64 // Run invocations with at least one chunk
	Chunks        int64 // chunks executed, all workers
	Steals        int64 // successful steals
	StealAttempts int64 // steal probes, successful or not
	WorkerChunks  []int64
	WorkerBusyNs  []int64 // wall time inside chunk functions, per worker
}

// StealPool runs chunked work across a fixed set of workers with
// steal-half load balancing. One pool is built per consumer (per rank,
// per model) and reused every physics step; Run is not safe to call
// concurrently with itself, matching how one rank steps serially.
type StealPool struct {
	workers int
	seed    uint64 // perturbs the victim-scan order (test schedules)
	deques  []dequeSlot
	stats   []workerStats
	panics  []any
	helpers []stealHelper // helpers[w] runs worker w >= 1 of a Run
	fn      func(worker, chunk int)
	active  int // workers participating in the current Run
	wg      sync.WaitGroup

	// Cumulative totals, folded in by the coordinator after each Run.
	runs, totChunks, totSteals, totAttempts int64
	cumChunks, cumBusyNs                    []int64

	// Observability (nil = off; all sinks are nil-safe).
	obsWorkers  *obs.Gauge
	obsChunks   *obs.Counter
	obsSteals   *obs.Counter
	obsAttempts *obs.Counter
	obsBusy     []*obs.Counter
	obsWChunks  []*obs.Counter
}

// NewStealPool builds a pool of n workers (n < 1 selects 1). The seed
// rotates each worker's victim-scan order, giving tests distinct steal
// schedules without touching results.
func NewStealPool(n int, seed uint64) *StealPool {
	if n < 1 {
		n = 1
	}
	p := &StealPool{
		workers:   n,
		seed:      seed,
		deques:    make([]dequeSlot, n),
		stats:     make([]workerStats, n),
		panics:    make([]any, n),
		helpers:   make([]stealHelper, n),
		cumChunks: make([]int64, n),
		cumBusyNs: make([]int64, n),
	}
	for w := range p.helpers {
		p.helpers[w] = stealHelper{p: p, w: w}
	}
	return p
}

// Workers reports the pool size.
func (p *StealPool) Workers() int { return p.workers }

// Stats snapshots the cumulative activity since the pool was built.
func (p *StealPool) Stats() StealStats {
	s := StealStats{
		Runs: p.runs, Chunks: p.totChunks,
		Steals: p.totSteals, StealAttempts: p.totAttempts,
		WorkerChunks: make([]int64, p.workers),
		WorkerBusyNs: make([]int64, p.workers),
	}
	copy(s.WorkerChunks, p.cumChunks)
	copy(s.WorkerBusyNs, p.cumBusyNs)
	return s
}

// Instrument wires the pool's counters into the unified registry:
// physics.workers (gauge), physics.chunks / physics.steals /
// physics.steal.attempts, and per-worker physics.worker_busy_ns.<w> /
// physics.worker_chunks.<w>. A nil registry detaches them.
func (p *StealPool) Instrument(reg *obs.Registry) {
	if reg == nil {
		p.obsWorkers, p.obsChunks, p.obsSteals, p.obsAttempts = nil, nil, nil, nil
		p.obsBusy, p.obsWChunks = nil, nil
		return
	}
	p.obsWorkers = reg.Gauge("physics.workers")
	p.obsChunks = reg.Counter("physics.chunks")
	p.obsSteals = reg.Counter("physics.steals")
	p.obsAttempts = reg.Counter("physics.steal.attempts")
	p.obsBusy = make([]*obs.Counter, p.workers)
	p.obsWChunks = make([]*obs.Counter, p.workers)
	for w := 0; w < p.workers; w++ {
		p.obsBusy[w] = reg.Counter(fmt.Sprintf("physics.worker_busy_ns.%d", w))
		p.obsWChunks[w] = reg.Counter(fmt.Sprintf("physics.worker_chunks.%d", w))
	}
	p.obsWorkers.Set(float64(p.workers))
}

// Run executes fn(worker, chunk) for every chunk in [0, nchunks), on at
// most Workers() concurrent workers. Each worker owns private state
// indexed by its worker id (column scratch, partial slots), so fn sees
// a stable worker index even when its chunk was stolen. A panic in any
// chunk — owned or stolen — is re-raised on the caller's goroutine
// after the remaining workers drain, so a failed chunk fails the whole
// call cleanly instead of leaking goroutines.
func (p *StealPool) Run(nchunks int, fn func(worker, chunk int)) {
	if nchunks <= 0 {
		return
	}
	active := p.workers
	if active > nchunks {
		active = nchunks
	}
	for w := range p.stats {
		p.stats[w] = workerStats{}
	}
	// Contiguous even split, remainder to the first workers — the same
	// chunks end up everywhere for every worker count; only ownership
	// differs, and ownership is invisible to a fixed-order merge.
	base, rem := nchunks/active, nchunks%active
	lo := 0
	for w := 0; w < p.workers; w++ {
		if w >= active {
			p.deques[w].bits.Store(0)
			continue
		}
		n := base
		if w < rem {
			n++
		}
		p.deques[w].bits.Store(packRange(lo, lo+n))
		lo += n
	}
	p.fn = fn
	p.active = active

	if active == 1 {
		// Serial fast path: no goroutines, no WaitGroup — panics
		// propagate natively.
		p.runWorker(0)
		p.finishRun()
		return
	}
	p.wg.Add(active)
	for w := 1; w < active; w++ {
		parked.Go(&p.helpers[w])
	}
	p.workerMain(0)
	p.wg.Wait()
	p.finishRun()
	// Clear every slot before re-raising, so no panic outlives its Run
	// (a slot past the next Run's active workers is not rewritten).
	var first any
	for w, pc := range p.panics {
		if first == nil {
			first = pc
		}
		p.panics[w] = nil
	}
	if first != nil {
		panic(first)
	}
}

// workerMain is the coordinator's own share of a Run: park a panic for
// the re-raise after the helpers drain.
func (p *StealPool) workerMain(w int) {
	defer p.wg.Done()
	defer func() { p.panics[w] = recover() }()
	p.runWorker(w)
}

// stealHelper runs one helper worker of a Run on a parked goroutine
// (package parked), so a warm Run starts its helpers without
// allocating; its pool and worker index are its fields, not a
// closure's.
type stealHelper struct {
	p *StealPool
	w int
}

func (h *stealHelper) Run() { h.p.runWorker(h.w) }

// Done parks a panicking chunk's value for the coordinator to re-raise.
// A chunk that calls runtime.Goexit ends the worker like a clean
// return, so the Run still ends.
func (h *stealHelper) Done(pc any) {
	h.p.panics[h.w] = pc
	h.p.wg.Done()
}

// runWorker drains the worker's own deque, then steals until no victim
// has work left.
func (p *StealPool) runWorker(w int) {
	st := &p.stats[w]
	for {
		ch, ok := p.deques[w].pop()
		if !ok {
			ch, ok = p.steal(w)
		}
		if !ok {
			return
		}
		t0 := time.Now()
		p.fn(w, ch)
		st.busyNs += time.Since(t0).Nanoseconds()
		st.chunks++
	}
}

// steal scans the other workers' deques (in a seed-rotated order) for a
// non-empty range and takes its top half: one chunk is returned for
// immediate execution, the rest becomes the thief's own range — so a
// stolen backlog keeps redistributing instead of pinning to one thief.
// Two full scans (with a yield between) bound the termination race
// where the last range is mid-steal; a worker that then exits early
// only forfeits utilization, never work, because the range it missed is
// already owned by another live worker.
func (p *StealPool) steal(w int) (int, bool) {
	n := p.active
	if n <= 1 {
		return 0, false
	}
	st := &p.stats[w]
	start := int((p.seed + uint64(w)*0x9e3779b97f4a7c15) % uint64(n-1))
	for scan := 0; scan < 2; scan++ {
		for i := 0; i < n-1; i++ {
			v := (w + 1 + (start+i)%(n-1)) % n
			st.attempts++
			if lo, hi, ok := p.deques[v].stealHalf(); ok {
				st.steals++
				if lo+1 < hi {
					// Own deque is empty (pop failed and nobody can
					// push to it), so the store cannot discard chunks.
					p.deques[w].bits.Store(packRange(lo+1, hi))
				}
				return lo, true
			}
		}
		runtime.Gosched()
	}
	return 0, false
}

// finishRun folds the per-worker ledgers into the cumulative totals and
// the attached registry.
func (p *StealPool) finishRun() {
	p.fn = nil
	p.runs++
	for w := range p.stats {
		st := &p.stats[w]
		p.totChunks += st.chunks
		p.totSteals += st.steals
		p.totAttempts += st.attempts
		p.cumChunks[w] += st.chunks
		p.cumBusyNs[w] += st.busyNs
		if p.obsBusy != nil {
			p.obsBusy[w].Add(st.busyNs)
			p.obsWChunks[w].Add(st.chunks)
		}
		p.obsChunks.Add(st.chunks)
		p.obsSteals.Add(st.steals)
		p.obsAttempts.Add(st.attempts)
	}
}
