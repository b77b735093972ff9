package core

import (
	"errors"
	"fmt"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/integrity"
	"swcam/internal/mpirt"
)

// At-rest scrubbing and in-compute invariant guards for ParallelJob —
// the per-step halves of the silent-data-corruption defense (the
// checkpoint-generation half lives in generations.go / resilient.go).
//
// Integrity is opt-in (EnableIntegrity) because the invariant ledger
// adds one reduction per step to every rank's operation stream, which
// would shift the op counters every existing seeded fault schedule is
// calibrated against.

// tagInvariant is the point-to-point tag of the canonical invariant
// reduction (outside halo's 101, the mass fixer's 202, and the buddy
// tags 203/204).
const tagInvariant = 205

// EnableIntegrity turns on the per-step SDC defenses: at-rest state
// scrubbing every scrubEvery steps (each rank's state is CRC-32C-sealed
// per element after it is finalized at end-of-step and re-verified
// before it is consumed at start-of-next-step) and the global
// mass/energy/tracer conservation ledger on the canonical rank-0
// reduction. Must be called before Run; tolerances can be tuned on the
// returned ledger. scrubEvery == 1 verifies every at-rest window — the
// only cadence that guarantees a resident-state flip is caught before
// the next checkpoint captures it; coarser cadences trade detection
// latency for scrub cost.
func (j *ParallelJob) EnableIntegrity(scrubEvery int) *integrity.Ledger {
	if scrubEvery < 1 {
		panic(fmt.Sprintf("core: EnableIntegrity(scrubEvery=%d)", scrubEvery))
	}
	j.ScrubEvery = scrubEvery
	j.seals = make([]*integrity.RankSeal, j.NRanks)
	j.ledger = integrity.NewLedger()
	return j.ledger
}

// scrubVerify re-verifies rank r's state against its live seal at the
// start of step stepNo. A seal from any step other than stepNo-1 is
// legitimately stale (coarse cadence, or the first step after a
// restore) and is skipped — staleness is not corruption.
func (j *ParallelJob) scrubVerify(r int, st *dycore.State, stepNo int) {
	s := j.seals[r]
	if s == nil || s.Step != stepNo-1 {
		return
	}
	t0 := time.Now()
	err := s.Verify(st)
	reg := j.Obs.R()
	reg.Counter("integrity.scrub.verifies").Add(1)
	reg.Counter("integrity.scrub.ns").Add(time.Since(t0).Nanoseconds())
	if err != nil {
		reg.Counter("integrity.scrub.detections").Add(1)
		mpirt.Fail(fmt.Errorf("core: at-rest scrub of rank %d before step %d: %w", r, stepNo, err))
	}
}

// scrubSeal reseals rank r's state at the end of step stepNo, at the
// configured cadence.
func (j *ParallelJob) scrubSeal(r int, st *dycore.State, stepNo int) {
	if stepNo%j.ScrubEvery != 0 {
		return
	}
	t0 := time.Now()
	if j.seals[r] == nil {
		j.seals[r] = integrity.NewRankSeal(st.NElem())
	}
	j.seals[r].Reseal(st, stepNo)
	reg := j.Obs.R()
	reg.Counter("integrity.scrub.seals").Add(1)
	reg.Counter("integrity.scrub.ns").Add(time.Since(t0).Nanoseconds())
}

// ScrubVerifyLive verifies every rank's live state against its current
// seal — the supervisor's pre-checkpoint gate, closing the window on
// flips that land after the last step's verify (i.e. on the final step
// of a chunk, where no next-step verify would run before the state is
// captured into a checkpoint). Seals not sealed at exactly the current
// step are stale and skipped. The returned error wraps
// integrity.ErrCorrupt.
func (j *ParallelJob) ScrubVerifyLive(local []*dycore.State) error {
	if j.ScrubEvery <= 0 {
		return nil
	}
	reg := j.Obs.R()
	// Verify every rank before reporting: two flips can land in the
	// same at-rest window, and a first-corrupt-rank short-circuit would
	// let the rollback discard the second flip undetected (fired faults
	// stay fired, so it would never resurface).
	var all error
	for r, st := range local {
		s := j.seals[r]
		if s == nil || s.Step != j.steps {
			continue
		}
		t0 := time.Now()
		err := s.Verify(st)
		reg.Counter("integrity.scrub.verifies").Add(1)
		reg.Counter("integrity.scrub.ns").Add(time.Since(t0).Nanoseconds())
		if err != nil {
			reg.Counter("integrity.scrub.detections").Add(1)
			all = errors.Join(all, fmt.Errorf("core: pre-checkpoint scrub of rank %d at step %d: %w", r, j.steps, err))
		}
	}
	return all
}

// installSeals replaces the live seals with clones of a checkpoint
// generation's (or clears them when seals is nil) — the restore hook:
// after a rollback the live seals must witness the restored bits, not
// the discarded ones. No-op when scrubbing is off.
func (j *ParallelJob) installSeals(seals []*integrity.RankSeal) {
	if j.ScrubEvery <= 0 {
		return
	}
	j.seals = make([]*integrity.RankSeal, j.NRanks)
	for r := range seals {
		if r < len(j.seals) && seals[r] != nil {
			j.seals[r] = seals[r].Clone()
		}
	}
}

// elemInvariants integrates mass, total energy, and tracer mass over
// each of rank r's elements separately — the canonical per-element
// partials of the invariant reduction, in the rank's pooled buffer.
func (j *ParallelJob) elemInvariants(r int, st *dycore.State) []float64 {
	npsq := j.Cfg.Np * j.Cfg.Np
	nlev := j.Cfg.Nlev
	out := j.red[r].local[:3*len(j.Plans[r].Elems)]
	for le, ge := range j.Plans[r].Elems {
		e := j.Mesh.Elements[ge]
		var mass, energy, tracer float64
		for n := 0; n < npsq; n++ {
			var colM, colE float64
			for k := 0; k < nlev; k++ {
				i := k*npsq + n
				dp := st.DP[le][i]
				u, v, T := st.U[le][i], st.V[le][i], st.T[le][i]
				colM += dp
				colE += (dycore.Cp*T + 0.5*(u*u+v*v)) * dp
			}
			mass += e.SphereMP[n] * colM
			energy += e.SphereMP[n] * colE
		}
		for i, v := range st.Qdp[le] {
			tracer += e.SphereMP[i%npsq] * v
		}
		out[3*le], out[3*le+1], out[3*le+2] = mass, energy, tracer
	}
	return out
}

// checkInvariants runs the per-step conservation ledger: the
// per-element partials go through the canonical reduction
// (partition-invariant, like the mass fixer) and rank 0 checks the
// sums against the previous step's record. The verdict is broadcast
// so every rank aborts together on a violation; on a healthy step the
// broadcast scalar is constant and cannot change the trajectory.
func (j *ParallelJob) checkInvariants(c *mpirt.Comm, r int, st *dycore.State, stepNo int) {
	rb := j.red[r]
	sums := rb.sums[:3]
	j.canonicalSums(c, r, tagInvariant, j.elemInvariants(r, st), sums)
	verdict := rb.out[:]
	verdict[0] = 0
	if r == 0 {
		inv := integrity.Invariants{Mass: sums[0], Energy: sums[1], TracerMass: sums[2]}
		reg := j.Obs.R()
		reg.Counter("integrity.ledger.checks").Add(1)
		if err := j.ledger.Check(stepNo, inv); err != nil {
			reg.Counter("integrity.ledger.detections").Add(1)
			j.ledgerErr = fmt.Errorf("core: invariant ledger at step %d: %w", stepNo, err)
			verdict[0] = 1
		}
	}
	c.Bcast(0, verdict)
	if verdict[0] > 0 {
		if r == 0 {
			mpirt.Fail(j.ledgerErr)
		}
		mpirt.Fail(fmt.Errorf("%w (invariant drift flagged by rank 0 at step %d)", integrity.ErrCorrupt, stepNo))
	}
}

// injectStateFlip polls the fault plan for a due flipState fault on
// rank r and, when one fires, flips one mantissa bit of the rank's
// resident state — after the end-of-step reseal, so the corruption
// lands in the at-rest window exactly like a real memory flip. Fired
// faults stay fired; a post-recovery replay of the step does not
// re-flip, so recovery converges to the fault-free trajectory.
func (j *ParallelJob) injectStateFlip(r int, st *dycore.State) {
	if j.Faults == nil {
		return
	}
	f := j.Faults.FireIntegrity(r, mpirt.FlipState)
	if f == nil {
		return
	}
	desc := flipStateBit(st, faultKey(f))
	j.Obs.R().Counter("integrity.flips.state").Add(1)
	j.Obs.T().Instant(r, "integrity.flipState "+desc, "fault")
}
