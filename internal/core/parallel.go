package core

import (
	"errors"
	"fmt"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/halo"
	"swcam/internal/integrity"
	"swcam/internal/mesh"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// ErrBlowup is wrapped by the blowup watchdog when the allreduced state
// check fails on any rank: every rank agrees to abort together, and the
// supervisor (ResilientJob) rolls back to the last checkpoint.
var ErrBlowup = errors.New("core: numerical blowup detected by watchdog")

// ParallelJob is the distributed dycore driver: the mesh partitioned
// over nranks processes (one simulated core group each), every rank
// running its kernels through an execution backend and resolving shared
// GLL nodes with the boundary exchange — the full "MPI + X" pipeline of
// the paper, in miniature. Its results are validated against the serial
// Solver bit-for-bit up to scan-regrouping rounding.
type ParallelJob struct {
	Cfg     dycore.Config
	Backend exec.Backend
	Overlap bool // use the redesigned bndry_exchangev (§7.6)
	NRanks  int

	Mesh   *mesh.Mesh
	Hybrid *dycore.HybridCoord
	RankOf []int
	Plans  []*halo.Plan
	engs   []*exec.Engine

	// Per-rank compiled element subsets for the §7.6 boundary-first
	// split: bsub covers Plan.BoundaryElems, isub Plan.InnerElems.
	// Rebuilt whenever the partition changes (Shrink).
	bsub []*exec.ElemSubset
	isub []*exec.ElemSubset

	// Resilience knobs (zero values = the historical fault-free setup).
	Faults      *mpirt.FaultPlan  // injected faults, threaded through every world
	RecvTimeout time.Duration     // receive deadline; makes lost messages ErrTimeout
	CheckEvery  int               // run the blowup watchdog every N steps (0 = off)
	MaxWind     float64           // CFL wind guard for the watchdog; 0 = Cfg.CFLMaxWind(0.9)
	Retry       mpirt.RetryPolicy // bounded per-message retransmission (zero = off)

	// Obs observes the run when set via Instrument (nil = off).
	Obs *obs.Probe

	// DynWorkers records the configured intra-rank worker-pool size
	// (0 = the engines' default of one worker; set via SetDynWorkers).
	DynWorkers int
	dynSet     bool // SetDynWorkers was called (0 then means "auto", not "default")

	// Physics phase (nil = dynamics-only; see EnablePhysics).
	phys     *jobPhysics
	rankPhys []*physRunner

	// TotalPrecip is the global-mean accumulated precipitation, kg/m^2,
	// advanced by rank 0 after each canonical reduction. ResilientJob
	// rewinds it with the step counter on rollback.
	TotalPrecip float64

	// PhysPanicHook, when set BEFORE EnablePhysics, is called at the
	// start of every physics chunk — the chaos tests' fault injector for
	// the work-stealing scheduler.
	PhysPanicHook func(rank, worker, elem int)

	// Integrity defenses (0/nil = off; see EnableIntegrity): the at-rest
	// scrub cadence, per-rank live seals (each rank goroutine touches
	// only its own slot, like scratch), and the rank-0-owned invariant
	// ledger with its pending violation detail.
	ScrubEvery int
	seals      []*integrity.RankSeal
	ledger     *integrity.Ledger
	ledgerErr  error

	steps   int
	scratch []*stepScratch // per-rank pooled step workspaces (lazy)
	red     []*reduceBufs  // per-rank pooled canonical-reduction buffers

	// world is the job's communicator, kept between RunChecked calls so
	// its warm mailbox freelists and collective scratch make a chunked
	// run allocate no message buffers. RunChecked replaces it when it is
	// missing, sized for another rank count (Shrink), or poisoned (the
	// last run failed); perRank is that run's per-rank stats, pooled.
	world   *mpirt.World
	perRank []RunStats
}

// stepScratch is one rank's reusable step-loop workspace: the SSP-RK2
// stage states, the hyperviscosity Laplacian fields, and the tracer
// stage copy. Pooling these removes the per-step heap churn that
// dominated stepRank before the engines went parallel; every field is
// fully overwritten before it is read each step, so reuse cannot change
// results.
type stepScratch struct {
	s1, s2                 *dycore.State
	lapU, lapV, lapT, lapP [][]float64
	qn                     [][]float64
}

// stepScratchFor returns rank r's pooled step workspace, building it on
// first use to match the rank's local state shape. The backing slice is
// allocated eagerly in buildRanks: rank goroutines call this
// concurrently, and each may only touch its own slot — a lazy nil-check
// here would race on the slice header itself.
func (j *ParallelJob) stepScratchFor(r int, st *dycore.State) *stepScratch {
	sc := j.scratch[r]
	if sc == nil {
		nlev := j.Cfg.Nlev
		npsq := j.Cfg.Np * j.Cfg.Np
		n := st.NElem()
		sc = &stepScratch{
			s1:   dycore.NewState(n, j.Cfg.Np, nlev, j.Cfg.Qsize),
			s2:   dycore.NewState(n, j.Cfg.Np, nlev, j.Cfg.Qsize),
			lapU: allocFields(n, nlev*npsq),
			lapV: allocFields(n, nlev*npsq),
			lapT: allocFields(n, nlev*npsq),
			lapP: allocFields(n, nlev*npsq),
			qn:   allocFields(n, j.Cfg.Qsize*nlev*npsq),
		}
		j.scratch[r] = sc
	}
	return sc
}

// SetDynWorkers sizes every rank engine's intra-rank worker pool: each
// kernel call tiles the rank's elements across n concurrent workers
// with private workspaces. n <= 0 selects per-rank ADAPTIVE sizing
// (exec.SetWorkersAuto): the machine default capped so each worker
// keeps enough element blocks to amortize tiling overhead, down to the
// inline serial path on tiny ranks. Results are bit-identical for
// every n.
func (j *ParallelJob) SetDynWorkers(n int) {
	j.DynWorkers = n
	j.dynSet = true
	for _, en := range j.engs {
		if n <= 0 {
			en.SetWorkersAuto()
		} else {
			en.SetWorkers(n)
		}
	}
}

// EngineWorkers reports the effective per-rank worker-pool size after
// defaulting (1 until SetDynWorkers is called).
func (j *ParallelJob) EngineWorkers() int {
	if len(j.engs) == 0 {
		return 1
	}
	return j.engs[0].Workers()
}

// NewParallelJob partitions the mesh and builds per-rank plans/engines.
func NewParallelJob(cfg dycore.Config, backend exec.Backend, overlap bool, nranks int) (*ParallelJob, error) {
	return newJobWithPartition(cfg, backend, overlap, nranks, nil)
}

// newJobWithPartition builds a job over a caller-supplied element-to-
// rank assignment (partition-quality experiments); a nil rankOf selects
// the mesh's own partition.
func newJobWithPartition(cfg dycore.Config, backend exec.Backend, overlap bool, nranks int, rankOf []int) (*ParallelJob, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(cfg.Ne, cfg.Np)
	if rankOf == nil {
		var err error
		if rankOf, err = m.Partition(nranks); err != nil {
			return nil, err
		}
	} else if len(rankOf) != m.NElems() {
		return nil, fmt.Errorf("core: rankOf covers %d of %d elements", len(rankOf), m.NElems())
	}
	j := &ParallelJob{
		Cfg: cfg, Backend: backend, Overlap: overlap, NRanks: nranks,
		Mesh: m, Hybrid: dycore.NewHybridCoord(cfg.Nlev), RankOf: rankOf,
	}
	j.buildRanks()
	return j, nil
}

// buildRanks (re)builds everything shaped by the element-to-rank
// assignment j.RankOf over j.NRanks ranks: the halo plans, the engines
// with their boundary/interior subsets (so the overlap path can launch
// kernels in two halves) and the configured worker policy — adaptive
// mode may choose differently on new per-rank element counts — and the
// per-rank step-scratch and reduction-buffer slots.
func (j *ParallelJob) buildRanks() {
	n := j.NRanks
	j.Plans = make([]*halo.Plan, n)
	j.engs = make([]*exec.Engine, n)
	j.bsub = make([]*exec.ElemSubset, n)
	j.isub = make([]*exec.ElemSubset, n)
	j.scratch = make([]*stepScratch, n)
	j.red = make([]*reduceBufs, n)
	maxPeer := 0
	for r := 0; r < n; r++ {
		p := halo.NewPlan(j.Mesh, j.RankOf, r)
		en := exec.NewEngine(j.Mesh, p.Elems, j.Cfg.Nlev, j.Cfg.Qsize)
		j.Plans[r], j.engs[r] = p, en
		j.bsub[r] = en.CompileSubset(p.BoundaryElems)
		j.isub[r] = en.CompileSubset(p.InnerElems)
		j.red[r] = &reduceBufs{local: make([]float64, reduceWidth*len(p.Elems))}
		if r > 0 && len(p.Elems) > maxPeer {
			maxPeer = len(p.Elems)
		}
	}
	j.red[0].global = make([]float64, reduceWidth*j.Mesh.NElems())
	j.red[0].recv = make([]float64, reduceWidth*maxPeer)
	if j.dynSet {
		j.SetDynWorkers(j.DynWorkers)
	}
}

// Scatter splits a global state (element-indexed like the mesh) into
// per-rank local states.
func (j *ParallelJob) Scatter(global *dycore.State) []*dycore.State {
	out := make([]*dycore.State, j.NRanks)
	for r := 0; r < j.NRanks; r++ {
		p := j.Plans[r]
		st := dycore.NewState(p.NLocal(), j.Cfg.Np, j.Cfg.Nlev, j.Cfg.Qsize)
		for le, ge := range p.Elems {
			copy(st.U[le], global.U[ge])
			copy(st.V[le], global.V[ge])
			copy(st.T[le], global.T[ge])
			copy(st.DP[le], global.DP[ge])
			copy(st.Qdp[le], global.Qdp[ge])
			copy(st.Phis[le], global.Phis[ge])
		}
		out[r] = st
	}
	return out
}

// Gather reassembles a global state from the per-rank locals into a
// new state.
func (j *ParallelJob) Gather(local []*dycore.State) *dycore.State {
	return j.GatherInto(dycore.NewState(j.Mesh.NElems(), j.Cfg.Np, j.Cfg.Nlev, j.Cfg.Qsize), local)
}

// GatherInto reassembles a global state from the per-rank locals into
// g, which must have the job's global shape, and returns it. Every
// element is owned by exactly one rank, so every field of g is
// overwritten: a kept g needs no clearing between calls.
func (j *ParallelJob) GatherInto(g *dycore.State, local []*dycore.State) *dycore.State {
	for r, st := range local {
		for le, ge := range j.Plans[r].Elems {
			copy(g.U[ge], st.U[le])
			copy(g.V[ge], st.V[le])
			copy(g.T[ge], st.T[le])
			copy(g.DP[ge], st.DP[le])
			copy(g.Qdp[ge], st.Qdp[le])
			copy(g.Phis[ge], st.Phis[le])
		}
	}
	return g
}

// RunStats aggregates one run's communication and kernel costs.
type RunStats struct {
	Halo  halo.Stats
	Cost  exec.Cost
	Steps int
	// Retransmission activity across all ranks (nonzero only with a
	// RetryPolicy set): retry cycles entered, and messages recovered
	// from the retransmit log instead of aborting the world.
	RetxAttempts  int64
	RetxRecovered int64
}

// runDSS runs a DSS-preceding kernel and its exchange as one pipelined
// unit on rank r. In Overlap mode the kernel is launched boundary-first
// (§7.6): the Open half covers Plan.BoundaryElems, whose values the
// exchange packs and posts asynchronously, and the Close half runs over
// Plan.InnerElems *inside* the exchange's computeInner — real work
// filling the window while messages are in flight. Without Overlap the
// kernel runs whole and the original blocking exchange follows. Both
// paths are bit-identical: the split launches compute exactly the
// unsplit kernel (see exec/subset.go) and both exchange flavours walk
// the same canonical chains.
//
// A detected transport fault (corruption, loss, aborted world) unwinds
// the rank via mpirt.Fail rather than threading an error through every
// frame of the timestep; World.Run converts it back into an error.
func (j *ParallelJob) runDSS(c *mpirt.Comm, r int, rs *RunStats, levels int,
	run func(exec.Subset) exec.Cost, fields ...[][]float64) {
	lay := halo.LevelMajor(levels, j.Cfg.Np*j.Cfg.Np)
	var s halo.Stats
	var err error
	if j.Overlap {
		rs.Cost.Add(run(exec.Subset{Sel: j.bsub[r], Phase: exec.Open}))
		inner := func() {
			rs.Cost.Add(run(exec.Subset{Sel: j.isub[r], Phase: exec.Close}))
		}
		s, err = j.Plans[r].DSSOverlap(c, lay, inner, fields...)
	} else {
		rs.Cost.Add(run(exec.Subset{}))
		s, err = j.Plans[r].DSSOriginal(c, lay, fields...)
	}
	if err != nil {
		mpirt.Fail(err)
	}
	rs.Halo.Add(s)
}

// Run advances the per-rank states n dynamics steps, mirroring the
// serial Solver.Step sequence exactly: SSP-RK2 dynamics, two-pass
// hyperviscosity with a global mass fixer, SSP-RK2 tracers with the
// positivity limiter, and the periodic vertical remap. A faulted world
// panics; fault-tolerant callers use RunChecked (or the ResilientJob
// supervisor, which adds checkpoints and rollback).
func (j *ParallelJob) Run(local []*dycore.State, n int) RunStats {
	stats, err := j.RunChecked(local, n)
	if err != nil {
		panic(err)
	}
	return stats
}

// RunChecked is Run with failure semantics: if any rank faults (injected
// kill, detected corruption, lost message, blowup watchdog, panic), it
// returns the error from World.Run naming the faulty rank. On error the
// step counter is NOT advanced and the local states are in an undefined,
// partially-stepped condition — the caller must restore them from a
// checkpoint before retrying.
//
// Every call runs on the job's one world (see jobWorld), with the
// world's counters zeroed first, so the returned stats and the
// published mpirt.* counters describe this call alone.
func (j *ParallelJob) RunChecked(local []*dycore.State, n int) (RunStats, error) {
	if len(local) != j.NRanks {
		panic(fmt.Sprintf("core: %d local states for %d ranks", len(local), j.NRanks))
	}
	var stats RunStats
	stats.Cost.Backend = j.Backend
	if len(j.perRank) != j.NRanks {
		j.perRank = make([]RunStats, j.NRanks)
	}
	perRank := j.perRank
	clear(perRank)
	w := j.jobWorld()
	err := w.Run(func(c *mpirt.Comm) {
		r := c.Rank()
		for step := 0; step < n; step++ {
			sp := j.Obs.T().Begin(r, "core.step", "model")
			t0 := time.Now()
			j.stepRank(c, r, local[r], &perRank[r], j.steps+step+1)
			j.Obs.R().Counter("core.step.ns").Add(time.Since(t0).Nanoseconds())
			sp.End()
			// Injected resident-state flips land here, in the at-rest
			// window after the end-of-step reseal — whether or not the
			// scrubber is on; the fault model never depends on the defense.
			j.injectStateFlip(r, local[r])
		}
	})
	for r := range perRank {
		stats.Halo.Add(perRank[r].Halo)
		stats.Cost.Add(perRank[r].Cost)
	}
	for r := 0; r < j.NRanks; r++ {
		ws := w.Stats(r)
		stats.RetxAttempts += ws.RetxAttempts
		stats.RetxRecovered += ws.RetxRecovered
	}
	w.DumpStats(j.Obs.R())
	recordCost(j.Obs.R(), stats.Cost)
	if err != nil {
		// A poisoned world stays poisoned: the next run gets a new one.
		j.world = nil
		return stats, err
	}
	j.steps += n
	stats.Steps = j.steps
	return stats, nil
}

// jobWorld returns the job's world for the next run, built when there
// is none or its size is not NRanks, with its counters zeroed and the
// job's current fault plan, receive deadline, retry policy and tracer
// attached. The fault plan keeps its own op counters, so reusing the
// world leaves the fault schedule exactly as a new world would see it.
func (j *ParallelJob) jobWorld() *mpirt.World {
	if j.world == nil || j.world.Size() != j.NRanks {
		j.world = mpirt.NewWorld(j.NRanks)
	}
	w := j.world
	w.ResetStats()
	w.SetFaults(j.Faults)
	w.SetRecvTimeout(j.RecvTimeout)
	w.SetRetry(j.Retry)
	w.SetTracer(j.Obs.T())
	return w
}

// StepCount returns the number of dynamics steps completed so far.
func (j *ParallelJob) StepCount() int { return j.steps }

// SetStepCount rewinds (or fast-forwards) the step counter — the restart
// hook: after loading a checkpoint taken at step s, SetStepCount(s)
// resumes the remap and watchdog cadence exactly.
func (j *ParallelJob) SetStepCount(s int) { j.steps = s }

// checkState runs the blowup watchdog on one rank and allreduces the
// verdict so every rank agrees to abort together (the collective is a
// max over per-rank failure flags, so it cannot change the trajectory of
// a healthy run).
func (j *ParallelJob) checkState(c *mpirt.Comm, st *dycore.State) {
	maxWind := j.MaxWind
	if maxWind == 0 {
		maxWind = j.Cfg.CFLMaxWind(0.9)
	}
	err := st.Check(maxWind)
	bad := 0.0
	if err != nil {
		bad = 1
	}
	if c.AllreduceScalar(mpirt.OpMax, bad) > 0 {
		if err != nil {
			mpirt.Fail(fmt.Errorf("%w: %w", ErrBlowup, err))
		}
		mpirt.Fail(fmt.Errorf("%w (on a peer rank)", ErrBlowup))
	}
}

func (j *ParallelJob) stepRank(c *mpirt.Comm, r int, st *dycore.State, rs *RunStats, stepNo int) {
	cfg := j.Cfg
	en := j.engs[r]
	nlev := cfg.Nlev
	npsq := cfg.Np * cfg.Np

	// --- At-rest scrub: verify the state against the seal taken when it
	// was finalized, before any kernel consumes (and spreads) a flip. ---
	if j.ScrubEvery > 0 {
		j.scrubVerify(r, st, stepNo)
	}

	// --- Dynamics: SSP-RK2 with DSS after each stage. ---
	sc := j.stepScratchFor(r, st)
	// The RHS writes every U, V, T and DP value of its output across the
	// two subsets, and no stage reads a stage state's tracers, so the
	// only stage-state input to copy is the second stage's Phis.
	s1, s2 := sc.s1, sc.s2
	s1.CopyPhisFrom(st)
	j.runDSS(c, r, rs, nlev, func(sub exec.Subset) exec.Cost {
		return en.ComputeAndApplyRHSOn(sub, j.Backend, st, st, s1, cfg.Dt)
	}, s1.U, s1.V, s1.T, s1.DP)
	j.runDSS(c, r, rs, nlev, func(sub exec.Subset) exec.Cost {
		return en.ComputeAndApplyRHSOn(sub, j.Backend, s1, s1, s2, cfg.Dt)
	}, s2.U, s2.V, s2.T, s2.DP)
	for le := range st.U {
		dycore.SSPRK2Combine(st.U[le], s2.U[le], st.U[le])
		dycore.SSPRK2Combine(st.V[le], s2.V[le], st.V[le])
		dycore.SSPRK2Combine(st.T[le], s2.T[le], st.T[le])
		dycore.SSPRK2Combine(st.DP[le], s2.DP[le], st.DP[le])
	}

	// --- Hyperviscosity with the proportional mass fixer. ---
	if cfg.HypervisSubcycle > 0 && (cfg.NuV != 0 || cfg.NuS != 0) {
		mass0 := j.canonicalMass(c, r, st)
		dt := cfg.Dt / float64(cfg.HypervisSubcycle)
		// Pooled Laplacian fields: HypervisDP1 overwrites every entry
		// before the DSS reads them, so reuse is safe.
		lapU, lapV, lapT, lapP := sc.lapU, sc.lapV, sc.lapT, sc.lapP
		for cyc := 0; cyc < cfg.HypervisSubcycle; cyc++ {
			j.runDSS(c, r, rs, nlev, func(sub exec.Subset) exec.Cost {
				return en.HypervisDP1On(sub, j.Backend, st, lapU, lapV, lapT, lapP)
			}, lapU, lapV, lapT, lapP)
			j.runDSS(c, r, rs, nlev, func(sub exec.Subset) exec.Cost {
				return en.HypervisDP2On(sub, j.Backend, lapU, lapV, lapT, lapP, st, dt, cfg.NuV, cfg.NuS)
			}, st.U, st.V, st.T, st.DP)
		}
		mass1 := j.canonicalMass(c, r, st)
		if mass1 > 0 {
			scale := mass0 / mass1
			for le := range st.DP {
				for i := range st.DP[le] {
					st.DP[le][i] *= scale
				}
			}
		}
	}

	// --- Tracers: SSP-RK2 with limiter, all tracers per exchange. ---
	if cfg.Qsize > 0 {
		qn := sc.qn
		for le := range st.Qdp {
			copy(qn[le], st.Qdp[le])
		}
		// The positivity limiter is element-local and must run before the
		// exchange packs an element's tracers, so under the split it is
		// applied per launch, over exactly the launch's slots.
		limitElem := func(le int) {
			e := j.Mesh.Elements[j.Plans[r].Elems[le]]
			for q := 0; q < cfg.Qsize; q++ {
				qdp := st.QdpAt(le, q)
				for k := 0; k < nlev; k++ {
					dycore.LimiterClipAndSum(qdp[k*npsq:(k+1)*npsq], e.SphereMP)
				}
			}
		}
		advance := func() {
			j.runDSS(c, r, rs, cfg.Qsize*nlev, func(sub exec.Subset) exec.Cost {
				cost := en.EulerStepOn(sub, j.Backend, st, cfg.Dt)
				if cfg.Limiter {
					if sub.Sel != nil {
						for _, le := range sub.Sel.Slots() {
							limitElem(le)
						}
					} else {
						for le := range st.Qdp {
							limitElem(le)
						}
					}
				}
				return cost
			}, st.Qdp)
		}
		advance()
		advance()
		for le := range st.Qdp {
			dycore.SSPRK2Combine(qn[le], st.Qdp[le], st.Qdp[le])
		}
	}

	// --- Vertical remap every RemapFreq steps (column-local). ---
	if stepNo%cfg.RemapFreq == 0 {
		rs.Cost.Add(en.VerticalRemap(j.Backend, j.Hybrid, st))
	}

	// --- Column physics every phys.every steps (opt-in), before the
	// watchdog so a physics-driven blowup is caught the same step. ---
	if j.phys != nil && stepNo%j.phys.every == 0 {
		sp := j.Obs.T().Begin(r, "core.physics", "model")
		j.applyPhysicsRank(c, r, st)
		sp.End()
	}

	// --- Invariant ledger: canonical global mass/energy/tracer sums,
	// checked step over step on rank 0 — the guard for in-compute flips
	// the scrubber's at-rest timing cannot see. Before the watchdog, so
	// an exponent-scale excursion is attributed to corruption rather
	// than reported as a generic blowup. ---
	if j.ledger != nil {
		j.checkInvariants(c, r, st, stepNo)
	}

	// --- Blowup watchdog at the configured cadence. ---
	if j.CheckEvery > 0 && stepNo%j.CheckEvery == 0 {
		j.checkState(c, st)
	}

	// --- Seal the finalized state for the next at-rest window. ---
	if j.ScrubEvery > 0 {
		j.scrubSeal(r, st, stepNo)
	}
}

// tagMass is the point-to-point tag of the canonical mass reduction
// (outside the halo tag and the reserved negative collective tags).
const tagMass = 202

// reduceWidth is the widest per-element partial a canonical reduction
// gathers: the invariant ledger's (mass, energy, tracer mass).
const reduceWidth = 3

// reduceBufs is one rank's pooled buffers for the canonical reductions
// (mass fixer, precipitation, invariant ledger), so a warm reduction
// allocates nothing. Each rank goroutine touches only its own.
type reduceBufs struct {
	local []float64 // per-element partials, up to reduceWidth per local element
	sums  [reduceWidth]float64
	out   [1]float64 // Bcast buffer for the reduced scalar
	// Rank 0 only: the gather workspace.
	global []float64 // partials placed by global element id
	recv   []float64 // one peer's partials, sized for the largest peer
}

// canonicalSums reduces per-element partials — len(sums) values per
// local element, flattened in local — to global column sums with a
// partition-invariant floating-point grouping: the partials are
// gathered to rank 0, placed by global element id, and each column is
// summed in ascending-id order into sums (valid on rank 0 only; callers
// Bcast what they derive from it). A rank-order allreduce tree would
// regroup the sums whenever the partition changes, so a shrink-recovered
// run would drift from the fault-free trajectory even though the DSS
// itself is canonical; this chain never depends on ownership, and the
// ascending-id sum is the exact association the serial Model uses.
func (j *ParallelJob) canonicalSums(c *mpirt.Comm, r, tag int, local, sums []float64) {
	if r != 0 {
		c.Send(0, tag, local)
		return
	}
	w := len(sums)
	rb := j.red[0]
	g := rb.global[:w*j.Mesh.NElems()]
	for src := 0; src < j.NRanks; src++ {
		elems := j.Plans[src].Elems
		part := local
		if src != 0 {
			part = rb.recv[:w*len(elems)]
			c.Recv(src, tag, part)
		}
		for le, ge := range elems {
			copy(g[w*ge:w*ge+w], part[w*le:w*le+w])
		}
	}
	for k := range sums {
		sums[k] = 0
	}
	for o := 0; o < len(g); o += w {
		for k := range sums {
			sums[k] += g[o+k]
		}
	}
}

// elemMasses integrates dp over each of this rank's elements separately,
// into the rank's pooled partials buffer.
func (j *ParallelJob) elemMasses(r int, st *dycore.State) []float64 {
	npsq := j.Cfg.Np * j.Cfg.Np
	out := j.red[r].local[:len(j.Plans[r].Elems)]
	for le, ge := range j.Plans[r].Elems {
		e := j.Mesh.Elements[ge]
		total := 0.0
		for n := 0; n < npsq; n++ {
			col := 0.0
			for k := 0; k < j.Cfg.Nlev; k++ {
				col += st.DP[le][k*npsq+n]
			}
			total += e.SphereMP[n] * col
		}
		out[le] = total
	}
	return out
}

// canonicalMass computes the global dp mass for the mass fixer on the
// canonical reduction and broadcasts it.
func (j *ParallelJob) canonicalMass(c *mpirt.Comm, r int, st *dycore.State) float64 {
	out := j.red[r].out[:]
	j.canonicalSums(c, r, tagMass, j.elemMasses(r, st), out)
	c.Bcast(0, out)
	return out[0]
}

func allocFields(n, per int) [][]float64 {
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, per)
	}
	return f
}

// Shrink removes a permanently dead rank from the job — degraded-mode
// recovery: the dead rank's elements are redistributed over the
// survivors along the space-filling curve, the halo plans, engines
// (re-tiled for the new element counts), scratch pools, and fault plan
// are rebuilt for the reduced world, and the step counter is preserved.
// The caller owns moving the state data: rebuild a global state from
// checkpoints and Scatter it with the new plans. Because the DSS and
// the mass fixer are partition-invariant, the shrunk job continues the
// exact fault-free trajectory.
func (j *ParallelJob) Shrink(dead int) error {
	newRankOf, err := j.Mesh.ShrinkPartition(j.RankOf, dead, j.NRanks)
	if err != nil {
		return err
	}
	j.RankOf = newRankOf
	j.NRanks--
	j.buildRanks()
	j.buildRankPhys()
	if j.ScrubEvery > 0 {
		// Fresh (unsealed) live seals for the new partition shapes; the
		// first post-shrink reseal re-arms scrubbing.
		j.seals = make([]*integrity.RankSeal, j.NRanks)
	}
	if j.Faults != nil {
		j.Faults = j.Faults.Shrink(dead)
	}
	if j.Obs != nil {
		j.Instrument(j.Obs)
	}
	return nil
}
