package sw

// CPE is one computing processing element: a user-mode-only RISC core
// with a 64 KB LDM, a DMA engine into the core group's shared memory, a
// 4-lane vector unit, and register-communication links along its row and
// column of the 8x8 mesh.
type CPE struct {
	Row, Col int
	ID       int // Row*8 + Col
	LDM      *LDM
	DMA      *DMA
	Ctr      PerfCounter
	cg       *CoreGroup
}

// CountFlops accounts n double-precision scalar operations.
func (c *CPE) CountFlops(n int64) { c.Ctr.FlopsScalar += n }

// Setup runs f, a kernel's per-launch setup block: the broadcast
// constant fetches hoisted out of the work loop and executed once per
// CPE per athread_spawn. On an ordinary launch Setup is a transparent
// call. When the host has split one logical launch into several tiles
// (CoreGroup.SetReplaySetup), replay tiles still execute f — every
// core group needs its own LDM image of the constants — but with DMA
// accounting muted, so performance counters are invariant to how the
// host tiles the launch: the setup traffic is charged exactly once, by
// the tile covering the first block, just as the untiled spawn charges
// it once.
func (c *CPE) Setup(f func()) {
	if c.cg.replaySetup {
		c.DMA.mute = true
		defer func() { c.DMA.mute = false }()
	}
	f()
}

// CountVecFlops accounts n double-precision operations retired through
// the vector unit (already multiplied out to element count by the caller).
func (c *CPE) CountVecFlops(n int64) { c.Ctr.FlopsVector += n }

// CountShuffles accounts n shuffle instructions.
func (c *CPE) CountShuffles(n int64) { c.Ctr.Shuffles += n }

// MPE is the management processing element of a core group: a full
// RISC core with a conventional cache hierarchy. It runs the serial
// portions of a kernel and drives MPI communication; the "MPE-only"
// execution backend of Table 1 runs whole kernels here.
type MPE struct {
	Ctr PerfCounter
	cg  *CoreGroup
}

// CoreGroup is one of the four CGs of an SW26010: one MPE, 64 CPEs, and
// a memory controller sharing one main-memory partition. In the
// "MPI + X" programming model of TaihuLight one MPI process maps to one
// CG (§5.3), so the simulator treats the CG as the unit a rank owns.
type CoreGroup struct {
	Index  int
	MPE    *MPE
	CPEs   [CPEsPerCG]*CPE
	fabric *regFabric
	// crew is the set of coroutines running the launch in flight on this
	// core group, nil between launches; see Spawn.
	crew *crew
	// onResume, when set, observes every coroutine switch of a launch:
	// the id of the CPE about to run. Tests read the schedule through it.
	onResume func(id int)
	// replaySetup marks launches on this core group as re-executions of
	// a logical launch whose per-launch setup traffic another core group
	// already accounted; see CPE.Setup.
	replaySetup bool
}

// SetReplaySetup marks (or clears) this core group as replaying the
// per-launch setup of a logical launch that another core group has
// already accounted. The host tiling layer sets it on every tile but
// the first before a kernel launch, so hoisted setup fetches wrapped in
// CPE.Setup are charged once per logical launch regardless of how many
// tiles simulate it.
func (cg *CoreGroup) SetReplaySetup(v bool) { cg.replaySetup = v }

// NewCoreGroup builds a core group with fresh LDMs, counters, and
// register fabric.
func NewCoreGroup(index int) *CoreGroup {
	cg := &CoreGroup{Index: index, fabric: &regFabric{}}
	cg.MPE = &MPE{cg: cg}
	for i := 0; i < CPEsPerCG; i++ {
		cpe := &CPE{Row: i / MeshDim, Col: i % MeshDim, ID: i, LDM: NewLDM(), cg: cg}
		cpe.DMA = &DMA{ctr: &cpe.Ctr}
		cg.CPEs[i] = cpe
	}
	return cg
}

// Counters returns the sum and the per-CPE maximum of the 64 CPE
// counters accumulated since the last ResetCounters. The sum feeds flop
// totals; the max bounds the makespan of load-imbalanced regions.
func (cg *CoreGroup) Counters() (sum, max PerfCounter) {
	for _, c := range cg.CPEs {
		sum.Add(&c.Ctr)
		max.MaxInPlace(&c.Ctr)
	}
	return sum, max
}

// ResetCounters zeroes the MPE and all CPE counters.
func (cg *CoreGroup) ResetCounters() {
	cg.MPE.Ctr.Reset()
	for _, c := range cg.CPEs {
		c.Ctr.Reset()
	}
}
