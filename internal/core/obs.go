package core

import (
	"swcam/internal/exec"
	"swcam/internal/obs"
)

// Attach wires the observability probe into the serial whole-model
// driver: dynamics and physics phases get spans (pid 0 — the serial
// model is one rank) and the physics suite feeds the registry. A nil
// probe detaches everything.
func (m *Model) Attach(p *obs.Probe) {
	m.obs = p
	m.phys.instrument(p.R())
}

// Instrument wires the probe into every rank of the distributed driver:
// each rank's engine records kernel spans and per-kernel attribution,
// each rank's exchange plan records halo spans and counters, the
// message runtime traces collectives, and the step loop itself gets
// per-rank spans. A nil probe detaches everything.
func (j *ParallelJob) Instrument(p *obs.Probe) {
	j.Obs = p
	for r := range j.engs {
		j.engs[r].Instrument(p.T(), p.K(), p.R(), r)
		j.Plans[r].Instrument(p.T(), p.R())
	}
	// Physics pools and suites share counter names across ranks (all
	// sinks are atomic), so physics.steals etc. aggregate the whole job.
	for _, rp := range j.rankPhys {
		rp.instrument(p.R())
	}
}

// observe mirrors one recovery decision into the unified registry and
// trace (instant events on the supervisor's timeline, pid 0). It runs
// on every event, before any user OnEvent callback; with no probe on
// the underlying job it is inert.
func (rj *ResilientJob) observe(e RecoveryEvent) {
	reg := rj.Job.Obs.R()
	switch e.Kind {
	case "checkpoint":
		reg.Counter("core.recovery.checkpoints").Add(1)
	case "rollback":
		reg.Counter("core.recovery.rollbacks").Add(1)
	case "giveup":
		reg.Counter("core.recovery.giveups").Add(1)
	case "localized":
		reg.Counter("core.recovery.localized").Add(1)
	case "respawn":
		reg.Counter("core.recovery.respawns").Add(1)
	case "shrink":
		reg.Counter("core.recovery.shrinks").Add(1)
	case "poisoned":
		reg.Counter("core.recovery.poisoned").Add(1)
	}
	if tr := rj.Job.Obs.T(); tr != nil {
		tr.Instant(0, "core."+e.Kind, "model")
	}
}

// recordCost folds one run's aggregated kernel cost into the unified
// registry — the exec/sw counter unification: DMA traffic, LDM
// high-water mark, and register-communication volume all originate in
// sw.PerfCounter and arrive here via exec.Cost.
func recordCost(reg *obs.Registry, c exec.Cost) {
	if reg == nil {
		return
	}
	reg.Counter("exec.flops.scalar").Add(c.FlopsScalar)
	reg.Counter("exec.flops.vector").Add(c.FlopsVector)
	reg.Counter("exec.mem.bytes").Add(c.MemBytes)
	reg.Counter("exec.dma.ops").Add(c.DMAOps)
	reg.Counter("exec.reg.msgs").Add(c.RegMsgs)
	reg.Counter("exec.launches").Add(c.Launches)
	reg.Gauge("exec.ldm.peak").Set(float64(c.LDMPeak))
}
