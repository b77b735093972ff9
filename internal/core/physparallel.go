// The distributed physics phase: every rank runs the column suite over
// its local elements on a work-stealing pool (physdriver.go), then the
// global precipitation diagnostic is reduced canonically — per-element
// partials gathered to rank 0 by global element id and summed in
// ascending order by canonicalSums, like the mass fixer — so the result
// is partition-invariant AND bit-identical to the serial Model for
// every rank count, worker count, and steal schedule.
package core

import (
	"fmt"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/mpirt"
	"swcam/internal/physics"
)

// tagPhys is the point-to-point tag of the canonical precipitation
// reduction (next to tagMass, outside the halo and collective ranges).
const tagPhys = 203

// jobPhysics is the opt-in physics configuration of a ParallelJob.
type jobPhysics struct {
	mode       physics.SuiteMode
	every      int     // apply the suite every N dynamics steps
	sst        float64 // equatorial SST of the prescribed surface
	sstDelta   float64 // pole-equator SST contrast
	workersReq int     // requested pool size (Config convention)
	seed       uint64  // victim-scan seed, rotated by tests
}

// EnablePhysics turns on the column-physics phase: the suite runs every
// `every` dynamics steps on each rank's local columns, with the surface
// prescribed as SST(lat) = sst - sstDelta*(1-cos^2 lat). Must be called
// after construction and before Run; the worker pool defaults to serial
// until SetPhysWorkers. The trajectory matches the serial Model with
// the same Config bit-for-bit.
func (j *ParallelJob) EnablePhysics(mode physics.SuiteMode, every int, sst, sstDelta float64) error {
	if every < 1 {
		return fmt.Errorf("core: EnablePhysics every = %d", every)
	}
	switch mode {
	case physics.Moist:
		if j.Cfg.Qsize < 1 {
			return fmt.Errorf("core: moist physics needs at least 1 tracer (qv)")
		}
	case physics.HeldSuarezMode:
	default:
		return fmt.Errorf("core: unknown physics mode %d", mode)
	}
	j.phys = &jobPhysics{mode: mode, every: every, sst: sst, sstDelta: sstDelta}
	j.buildRankPhys()
	return nil
}

// SetPhysWorkers sizes every rank's physics pool (negative = auto-size
// to the machine, 0 or 1 = serial — the Config.PhysWorkers convention).
// Results are bit-identical for every value. No-op before EnablePhysics.
func (j *ParallelJob) SetPhysWorkers(n int) {
	if j.phys == nil {
		return
	}
	j.phys.workersReq = n
	j.buildRankPhys()
}

// PhysWorkers reports the resolved per-rank physics pool size (0 when
// physics is off).
func (j *ParallelJob) PhysWorkers() int {
	if j.phys == nil || len(j.rankPhys) == 0 {
		return 0
	}
	return j.rankPhys[0].workers()
}

// PhysStats sums the physics pools' cumulative scheduling activity over
// all ranks (per-worker slices are aligned by worker index).
func (j *ParallelJob) PhysStats() physics.StealStats {
	var tot physics.StealStats
	for _, rp := range j.rankPhys {
		s := rp.pool.Stats()
		tot.Runs += s.Runs
		tot.Chunks += s.Chunks
		tot.Steals += s.Steals
		tot.StealAttempts += s.StealAttempts
		if tot.WorkerChunks == nil {
			tot.WorkerChunks = make([]int64, len(s.WorkerChunks))
			tot.WorkerBusyNs = make([]int64, len(s.WorkerBusyNs))
		}
		for w := range s.WorkerChunks {
			tot.WorkerChunks[w] += s.WorkerChunks[w]
			tot.WorkerBusyNs[w] += s.WorkerBusyNs[w]
		}
	}
	return tot
}

// buildRankPhys (re)builds the per-rank runners, each with its own
// suite (atomic counters — safe under the pool) and the column map of
// the rank's halo plan, for the current partition. Called by
// EnablePhysics, SetPhysWorkers, and Shrink; Instrument re-wires
// observability after.
func (j *ParallelJob) buildRankPhys() {
	pc := j.phys
	if pc == nil {
		return
	}
	j.rankPhys = make([]*physRunner, j.NRanks)
	for r := 0; r < j.NRanks; r++ {
		r := r
		var suite *physics.Suite
		switch pc.mode {
		case physics.Moist:
			suite = physics.NewMoistSuite()
		case physics.HeldSuarezMode:
			suite = physics.NewHeldSuarezSuite()
		}
		p := j.Plans[r]
		cols := physColumns{
			elems: make([]*mesh.Element, len(p.Elems)),
			np:    j.Cfg.Np, nlev: j.Cfg.Nlev, qsize: j.Cfg.Qsize,
			sst: pc.sst, sstDelta: pc.sstDelta,
		}
		for le, ge := range p.Elems {
			cols.elems[le] = j.Mesh.Elements[ge]
		}
		for _, g := range p.Groups {
			cols.shared = append(cols.shared, g.Refs)
		}
		rp := newPhysRunner(physWorkersRequest(pc.workersReq), pc.seed, suite, cols)
		if j.PhysPanicHook != nil {
			rp.hook = func(w, le int) { j.PhysPanicHook(r, w, le) }
		}
		j.rankPhys[r] = rp
	}
}

// applyPhysicsRank runs one physics step on rank r's columns and folds
// the canonical global-mean precipitation increment into TotalPrecip
// (written by rank 0 only — the field is read after the world joins).
func (j *ParallelJob) applyPhysicsRank(c *mpirt.Comm, r int, st *dycore.State) {
	j.rankPhys[r].run(st, j.Cfg.Dt*float64(j.phys.every))
	inc := j.canonicalPrecip(c, r)
	if r == 0 {
		j.TotalPrecip += inc
	}
}

// canonicalPrecip reduces the per-element (precip, area) partials to
// the global area-weighted mean increment on the canonical reduction,
// so serial and every partition agree bit-for-bit.
func (j *ParallelJob) canonicalPrecip(c *mpirt.Comm, r int) float64 {
	rb := j.red[r]
	parts := j.rankPhys[r].parts
	local := rb.local[:2*len(parts)]
	for i := range parts {
		local[2*i], local[2*i+1] = parts[i].precip, parts[i].area
	}
	sums := rb.sums[:2]
	j.canonicalSums(c, r, tagPhys, local, sums)
	rb.out[0] = 0
	if r == 0 && sums[1] > 0 {
		rb.out[0] = sums[0] / sums[1]
	}
	c.Bcast(0, rb.out[:])
	return rb.out[0]
}
