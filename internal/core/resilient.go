package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/integrity"
	"swcam/internal/mpirt"
)

// ResilientJob supervises a ParallelJob through faults with one
// supervise loop (Run): step a chunk, verify, checkpoint, and on any
// abort — an injected kill, a corrupted or lost message, a blowup caught
// by the watchdog, a rank panic — pick a recovery rung and replay. Mode
// selects only the rung picker:
//
// ModeGlobal (the default, and the original design): every abort rolls
// the whole world back to the last verified checkpoint (restoreVerified).
//
// ModeLadder: a three-rung escalation (recoverLadder) that localizes
// recovery instead of always paying the global bill.
//
//  1. Bounded retransmission (mpirt.RetryPolicy): a corrupted or lost
//     message is re-pulled from the sender-side log with exponential
//     backoff before anyone declares a failure. Most transient faults
//     never surface past this rung.
//  2. Localized rebuild from partner-replicated diskless checkpoints:
//     at every checkpoint each rank ships its encoded state (v2
//     checkpoint format, CRC32-C) to its buddy rank (r+1 mod n). When a
//     single rank dies, it alone is rebuilt from the buddy's in-memory
//     copy while the survivors restore their own local snapshots at a
//     recovery barrier — no disk, no global replay. A rank that keeps
//     dying (DeadAfter consecutive failures) is declared permanently
//     dead and either respawned onto a spare (Spares > 0) or removed by
//     shrink recovery: its elements are repartitioned over the
//     survivors along the space-filling curve and the run continues on
//     n-1 ranks at reduced throughput.
//  3. Global rollback, the PR-1 path, as the fallback rung: blowups
//     (every rank's state is suspect, nobody's memory was lost),
//     unattributable faults, and lost/undecodable buddy copies fall
//     back to restoring everything — from own snapshots when they
//     survive, else from the disk checkpoint when DiskPath is set.
//
// Both modes retain up to Generations verified checkpoint generations
// (generations.go): every restore target is re-verified against its
// CRC-32C seals before a bit is copied back, rotten own copies heal
// from buddy replicas, and a poisoned generation escalates to the
// next-older one instead of restoring garbage. Detected silent data
// corruption (the at-rest scrubber, the invariant ledger, a pre-ship
// snapshot verification — all wrapping integrity.ErrCorrupt) routes to
// verified restore directly: the rank is healthy, its bits rotted, so
// it would be wrong to advance the failure detector toward declaring
// it dead.
//
// Because the dycore, the DSS, and the mass fixer are deterministic and
// partition-invariant, every rung — including shrink onto fewer ranks —
// reproduces the fault-free trajectory bit-for-bit.
//
// This is the miniature of the checkpoint/restart discipline every
// production climate model runs under (the ladder mirrors ULFM-style
// shrink-and-recover MPI practice plus diskless buddy checkpointing):
// at the paper's 10M-core scale the question is not whether a rank dies
// mid-run but how cheaply the job continues when it does.
type ResilientJob struct {
	Job *ParallelJob

	// Mode selects the supervision strategy: ModeGlobal (default, also
	// the zero value) or ModeLadder.
	Mode string

	// CheckpointEvery is the number of steps between checkpoints
	// (default 1). Larger values checkpoint less often but replay more
	// steps after a fault.
	CheckpointEvery int

	// Generations is how many verified checkpoint generations the
	// supervisor retains (default 1, the historical single-checkpoint
	// behavior). With K > 1, a restore whose newest generation is
	// poisoned escalates to the next-older one — replaying more steps —
	// instead of falling straight through to disk.
	Generations int

	// MaxRetries bounds the total number of recovery actions across the
	// run (default 3). When exhausted, Run restores the last good
	// checkpoint into the supervised states (best-effort result) and
	// returns an error wrapping the final cause — graceful degradation,
	// not a panic.
	MaxRetries int

	// Backoff is the sleep before the first retry, doubling per
	// consecutive retry (default 0: retry immediately; an in-process
	// world has no transient congestion to wait out, so backoff mainly
	// models the real-machine discipline and paces the test clock).
	Backoff time.Duration

	// DiskPath, when set, additionally persists every checkpoint to this
	// file (gathered global state, atomic rename, v2 CRC format) so a
	// killed process can restart from disk with LoadCheckpoint. It is
	// the bottom rung when every retained generation is lost or
	// poisoned.
	DiskPath string

	// Spares is the number of replacement ranks available to ladder
	// recovery: a permanently dead rank consumes one spare and is
	// respawned (rebuilt from its buddy copy) instead of shrinking the
	// world.
	Spares int

	// DeadAfter is how many consecutive failures attributed to the same
	// rank escalate it from "suspect" (rebuild in place) to "permanently
	// dead" (respawn or shrink). Default 2.
	DeadAfter int

	// OnEvent, when set, observes every recovery decision.
	OnEvent func(RecoveryEvent)

	// PreShipHook, when set, sees every encoded snapshot right before
	// its pre-ship verification at checkpoint time — the test hook that
	// simulates a snapshot rotting between encode and ship.
	PreShipHook func(rank int, enc []float64)

	// Ladder bookkeeping.
	local       []*dycore.State   // states under supervision (shrink replaces the slice)
	gens        []*ckptGeneration // verified checkpoint ring, newest first (generations.go)
	spare       genStorage        // storage of the last retired generation, for the next capture
	enc         [][]float64       // per-rank snapshot encode staging, reused every checkpoint
	repl        *mpirt.World      // replication world, kept between checkpoints (exchangeBuddies)
	shipBody    func(*mpirt.Comm) // shipRank bound once, handed to repl.Run
	shipGen     *ckptGeneration   // the generation shipBody replicates, set for one round
	suspectRank int               // rank of the most recent attributed failure
	suspectRun  int               // consecutive failures attributed to suspectRank
	diskStep    int               // step of the last disk checkpoint written
	diskPrecip  float64           // TotalPrecip at that disk checkpoint
}

// Supervision modes.
const (
	ModeGlobal = "global"
	ModeLadder = "ladder"
)

// RecoveryEvent describes one supervisor decision, for diagnostics.
type RecoveryEvent struct {
	Kind    string // "checkpoint", "rollback", "giveup", "localized", "respawn", "shrink", "poisoned"
	Step    int    // model step of the affected checkpoint
	Attempt int    // consecutive failures at this checkpoint (recovery kinds)
	Rank    int    // failed rank for localized/respawn/shrink/poisoned; -1 otherwise
	Err     error  // the fault that triggered it (recovery kinds)
}

func (e RecoveryEvent) String() string {
	rank := ""
	if e.Rank >= 0 {
		rank = fmt.Sprintf(" rank%d", e.Rank)
	}
	if e.Err == nil {
		return fmt.Sprintf("%s@step%d%s", e.Kind, e.Step, rank)
	}
	return fmt.Sprintf("%s@step%d%s attempt %d: %v", e.Kind, e.Step, rank, e.Attempt, e.Err)
}

// ResilientStats aggregates a supervised run: the underlying
// communication/kernel stats (including traffic burned by failed
// attempts) plus the recovery history.
type ResilientStats struct {
	Run         RunStats
	Checkpoints int
	Rollbacks   int // global rollbacks (rung 3)
	Localized   int // single-rank rebuilds from a buddy copy (rung 2)
	Respawns    int // permanently dead ranks replaced from spares
	Shrinks     int // permanently dead ranks removed by repartitioning
	Poisoned    int // checkpoint copies (own or buddy) rejected by verification
	Escalations int // restores that skipped past a poisoned generation
	// RetxAttempts/RetxRecovered mirror RunStats: rung-1 activity.
	RetxAttempts  int64
	RetxRecovered int64
	RecoveryNs    int64 // wall time spent inside recovery actions
	BuddyBytes    int64 // buddy-replication traffic (checkpoint + recovery)
	Events        []RecoveryEvent
}

// NewResilientJob wraps a ParallelJob with default supervision
// (global mode, checkpoint every step, 3 retries, no backoff,
// in-memory only, one retained generation).
func NewResilientJob(job *ParallelJob) *ResilientJob {
	return &ResilientJob{Job: job, CheckpointEvery: 1, MaxRetries: 3}
}

// States returns the state slice currently under supervision. It aliases
// the slice passed to Run until a shrink recovery replaces it (the world
// lost a rank, so the slice length changed); ladder-mode callers must
// gather results via States() rather than the slice they passed in.
func (rj *ResilientJob) States() []*dycore.State { return rj.local }

// restore copies a snapshot back into the caller's state objects.
func restore(local, snap []*dycore.State) {
	for i := range local {
		local[i].CopyFrom(snap[i])
	}
}

// record appends a supervisor decision to the run's history and
// publishes it to the registry and the OnEvent observer.
func (rj *ResilientJob) record(rs *ResilientStats, e RecoveryEvent) {
	rs.Events = append(rs.Events, e)
	rj.observe(e)
	if rj.OnEvent != nil {
		rj.OnEvent(e)
	}
}

// addRecoveryNs folds one recovery action's wall time into the run's
// stats and mirrors it into the registry (core.recovery.ns), where the
// StepReport's recovery summary picks it up.
func (rj *ResilientJob) addRecoveryNs(rs *ResilientStats, t0 time.Time) {
	ns := time.Since(t0).Nanoseconds()
	rs.RecoveryNs += ns
	rj.Job.Obs.R().Counter("core.recovery.ns").Add(ns)
}

// rewindTo resets the job's step counter, its accumulated diagnostics,
// and its live scrub seals to checkpoint generation g. Replayed physics
// steps re-accumulate precipitation, so restoring the states without
// rewinding TotalPrecip would double-count every burned chunk's rain;
// likewise the live seals must witness the restored bits.
func (rj *ResilientJob) rewindTo(g *ckptGeneration) {
	rj.Job.SetStepCount(g.step)
	rj.Job.TotalPrecip = g.precip
	rj.Job.installSeals(g.seals)
}

// takeCheckpoint captures a new verified generation of the supervised
// states — own snapshots (CRC-sealed when scrubbing is on), the buddy
// exchange in ladder mode, the disk copy when DiskPath is set — and
// pushes it onto the retention ring. Injected checkpoint-copy flips
// land after the seals and the exchange are taken, so the seals always
// witness the clean bits. The steady state allocates no state-sized
// memory: every stage copies into a buffer it keeps (the retired
// generation's storage, the per-rank encode staging, the replication
// world's mailbox buffers).
func (rj *ResilientJob) takeCheckpoint(rs *ResilientStats, step int) error {
	sp := rj.Job.Obs.T().Begin(0, "core.checkpoint", "model")
	defer sp.End()
	g := rj.capture(step)
	if rj.Mode == ModeLadder {
		if err := rj.exchangeBuddies(rs, g); err != nil {
			rj.retire(g)
			return err
		}
	}
	rj.injectCheckpointFlips(g)
	rj.pushGeneration(rs, g)
	return rj.persist(rj.local, step)
}

// injectCheckpointFlips polls the fault plan for due flipCheckpoint /
// flipBuddy faults and corrupts the captured copies accordingly: the
// rank's own snapshot after its seal was taken (so the rot is
// detectable, and the clean buddy replica can heal it), or the
// buddy-held replica after the exchange (so the owner's copy stays
// good and localized recovery must reject the replica).
func (rj *ResilientJob) injectCheckpointFlips(g *ckptGeneration) {
	plan := rj.Job.Faults
	if plan == nil {
		return
	}
	reg := rj.Job.Obs.R()
	for r := range g.own {
		if f := plan.FireIntegrity(r, mpirt.FlipCheckpoint); f != nil {
			desc := flipStateBit(g.own[r], faultKey(f))
			reg.Counter("integrity.flips.checkpoint").Add(1)
			rj.Job.Obs.T().Instant(0, "integrity.flipCheckpoint rank"+fmt.Sprint(r)+" "+desc, "fault")
		}
		if g.buddy[r] != nil {
			if f := plan.FireIntegrity(r, mpirt.FlipBuddy); f != nil {
				flipPayloadWord(g.buddy[r], faultKey(f))
				reg.Counter("integrity.flips.buddy").Add(1)
				rj.Job.Obs.T().Instant(0, "integrity.flipBuddy rank"+fmt.Sprint(r), "fault")
			}
		}
	}
}

// Run advances the local states n steps under supervision. On success
// the states hold exactly what a fault-free ParallelJob.Run would have
// produced (bit-identical: every rung restores checkpointed bits and the
// replay is deterministic). On retry-budget exhaustion the states hold
// the last good checkpoint and the returned error wraps the final
// fault; the stats' Events list is the full recovery history either way.
// In ladder mode a shrink recovery replaces the supervised slice — read
// results via States().
func (rj *ResilientJob) Run(local []*dycore.State, n int) (ResilientStats, error) {
	every := rj.CheckpointEvery
	if every < 1 {
		every = 1
	}
	if rj.Mode == ModeLadder {
		// The ladder's first rung: make sure message-level retransmission
		// is on, and that lost messages surface as timeouts rather than
		// hanging the job forever when faults are being injected.
		if rj.Job.Retry.MaxAttempts == 0 {
			rj.Job.Retry = mpirt.DefaultRetryPolicy()
		}
		if rj.Job.Faults != nil && rj.Job.RecvTimeout == 0 {
			rj.Job.RecvTimeout = 150 * time.Millisecond
		}
	}
	rj.local = local
	rj.suspectRank, rj.suspectRun = -1, 0

	var rs ResilientStats
	rs.Run.Cost.Backend = rj.Job.Backend

	if err := rj.takeCheckpoint(&rs, rj.Job.StepCount()); err != nil {
		return rs, err
	}
	target := rj.Job.StepCount() + n
	retries := 0
	attempt := 0
	backoff := rj.Backoff

	for rj.Job.StepCount() < target {
		chunk := every
		if left := target - rj.Job.StepCount(); left < chunk {
			chunk = left
		}
		stats, err := rj.Job.RunChecked(rj.local, chunk)
		rs.Run.Halo.Add(stats.Halo)
		rs.Run.Cost.Add(stats.Cost)
		rs.RetxAttempts += stats.RetxAttempts
		rs.RetxRecovered += stats.RetxRecovered
		if err == nil {
			// Close the final at-rest window before capturing: a flip on
			// the chunk's last step must never reach a checkpoint.
			err = rj.Job.ScrubVerifyLive(rj.local)
		}
		if err == nil {
			attempt = 0
			backoff = rj.Backoff
			rj.suspectRank, rj.suspectRun = -1, 0
			step := rj.Job.StepCount()
			if cerr := rj.takeCheckpoint(&rs, step); cerr != nil {
				if !errors.Is(cerr, integrity.ErrCorrupt) {
					return rs, cerr
				}
				err = cerr // corrupt capture: recover below
			} else {
				rs.Checkpoints++
				rj.record(&rs, RecoveryEvent{Kind: "checkpoint", Step: step, Rank: -1})
				continue
			}
		}

		attempt++
		if retries >= rj.MaxRetries {
			// Graceful degradation: hand back the last state known good
			// and the full diagnosis instead of a corrupt field set.
			t0 := time.Now()
			rj.bestEffortRestore(&rs)
			rj.addRecoveryNs(&rs, t0)
			rj.auditAllGenerations(&rs)
			rj.record(&rs, RecoveryEvent{Kind: "giveup", Step: rj.checkpointStep(), Attempt: attempt, Rank: -1, Err: err})
			return rs, fmt.Errorf("core: retry budget (%d) exhausted at step %d (best-effort state restored): %w",
				rj.MaxRetries, rj.checkpointStep(), err)
		}
		retries++
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		// The failed chunk's steps are burned work: they get replayed
		// from the checkpoint on the next attempt.
		rj.Job.Obs.R().Counter("core.recovery.replayed_steps").Add(int64(chunk))
		t0 := time.Now()
		rerr := rj.recoverChunk(&rs, attempt, err)
		rj.addRecoveryNs(&rs, t0)
		if rerr != nil {
			return rs, rerr
		}
	}
	rj.auditAllGenerations(&rs)
	rs.Run.Steps = rj.Job.StepCount()
	return rs, nil
}

// recoverChunk picks and executes the recovery rung for one failed
// chunk. The mode changes only this choice: ModeLadder escalates
// through the ladder, ModeGlobal restores a verified generation.
func (rj *ResilientJob) recoverChunk(rs *ResilientStats, attempt int, cause error) error {
	if rj.Mode == ModeLadder {
		return rj.recoverLadder(rs, attempt, cause)
	}
	return rj.restoreVerified(rs, attempt, cause)
}

// deadAfterN returns the escalation threshold with its default applied.
func (rj *ResilientJob) deadAfterN() int {
	if rj.DeadAfter < 1 {
		return 2
	}
	return rj.DeadAfter
}

// recoverLadder picks and executes the recovery rung for one failed
// chunk. A nil return means the supervised states are back at a
// verified checkpoint (possibly on a reduced world, possibly an older
// generation) and the chunk can be replayed; an error means every
// applicable rung failed.
func (rj *ResilientJob) recoverLadder(rs *ResilientStats, attempt int, cause error) error {
	// Detected silent corruption is not process death: the rank is
	// healthy, its resident bits rotted. Restore from a verified
	// generation and leave the failure detector alone.
	if errors.Is(cause, integrity.ErrCorrupt) {
		return rj.restoreVerified(rs, attempt, cause)
	}
	var re *mpirt.RunError
	faulty := -1
	if errors.As(cause, &re) {
		faulty = re.Rank
	}
	// Blowups are not rank failures: nobody's memory was lost, and the
	// state is wrong (or about to be) everywhere. Likewise a fault with
	// no rank attribution gives localized recovery nothing to localize.
	if faulty < 0 || errors.Is(cause, ErrBlowup) {
		return rj.restoreVerified(rs, attempt, cause)
	}
	if faulty == rj.suspectRank {
		rj.suspectRun++
	} else {
		rj.suspectRank, rj.suspectRun = faulty, 1
	}
	if rj.suspectRun >= rj.deadAfterN() {
		// Permanently dead: the failure detector has watched this rank
		// die DeadAfter times in a row through localized rebuilds.
		rj.suspectRank, rj.suspectRun = -1, 0
		if rj.Spares > 0 {
			rj.Spares--
			return rj.localizedRestore(rs, "respawn", faulty, attempt, cause)
		}
		if rj.Job.NRanks > 1 {
			return rj.shrinkRestore(rs, faulty, attempt, cause)
		}
		// A 1-rank world has nothing to shrink onto.
		return rj.restoreVerified(rs, attempt, cause)
	}
	return rj.localizedRestore(rs, "localized", faulty, attempt, cause)
}

// restoreVerified is the global rung with checkpoint hygiene: walk the
// generation ring newest-first, restore from the first generation whose
// every rank still verifies (healing single copies from buddy
// replicas), and drop poisoned generations — audited out, so their
// remaining rot is counted — instead of restoring garbage. When the
// ring is exhausted, the disk checkpoint is the last resort.
func (rj *ResilientJob) restoreVerified(rs *ResilientStats, attempt int, cause error) error {
	for len(rj.gens) > 0 {
		g := rj.gens[0]
		verr := rj.verifyGeneration(rs, g)
		if verr == nil {
			sp := rj.Job.Obs.T().Begin(0, "core.rollback", "model")
			restore(rj.local, g.own)
			sp.End()
			rj.rewindTo(g)
			rs.Rollbacks++
			rj.record(rs, RecoveryEvent{Kind: "rollback", Step: g.step, Attempt: attempt, Rank: -1, Err: cause})
			return nil
		}
		rj.dropPoisonedGeneration(rs, g)
		cause = fmt.Errorf("%w; %w", cause, verr)
	}
	return rj.globalFallback(rs, attempt, cause)
}

// dropPoisonedGeneration audits and removes the newest generation after
// a failed verification, recording the escalation to the next-older
// restore target.
func (rj *ResilientJob) dropPoisonedGeneration(rs *ResilientStats, g *ckptGeneration) {
	rj.auditGeneration(rs, g)
	rj.gens = rj.gens[1:]
	rs.Escalations++
	rj.Job.Obs.R().Counter("integrity.gen.escalations").Add(1)
}

// bestEffortRestore puts the freshest verifiable generation back into
// the supervised states on the way out of a failed run — the caller
// hands back the last state known good, never a corrupt field set. If
// nothing verifies, the states are left as they are.
func (rj *ResilientJob) bestEffortRestore(rs *ResilientStats) {
	for len(rj.gens) > 0 {
		g := rj.gens[0]
		if rj.verifyGeneration(rs, g) == nil {
			restore(rj.local, g.own)
			rj.rewindTo(g)
			return
		}
		rj.dropPoisonedGeneration(rs, g)
	}
}

// rebuildFromBuddy is the shared front half of localized and shrink
// recovery (what names the rung in diagnostics): drop the failed rank's
// own snapshot from the newest generation — its process memory is gone,
// so every fallback is honest about what survives — fetch and decode
// the buddy-held replica, reseal it, and re-verify the whole generation
// (survivors' own copies sat in memory since the checkpoint; rotten ones
// heal from their buddies) before any of it is restored. It returns the
// repaired generation, or nil when a fallback rung already ran, with
// that rung's outcome.
func (rj *ResilientJob) rebuildFromBuddy(rs *ResilientStats, what string, faulty, attempt int, cause error) (*ckptGeneration, error) {
	if len(rj.gens) == 0 {
		return nil, rj.globalFallback(rs, attempt, cause)
	}
	g := rj.gens[0]
	g.own[faulty] = nil
	st, err := rj.fetchBuddy(rs, g, faulty)
	if err != nil {
		if g.buddy[faulty] != nil {
			rj.markPoisoned(rs, g, faulty, fmt.Errorf("buddy checkpoint copy: %w", err))
			g.buddy[faulty] = nil
		}
		return nil, rj.restoreVerified(rs, attempt,
			fmt.Errorf("core: %s recovery of rank %d failed: %w (original fault: %w)", what, faulty, err, cause))
	}
	g.own[faulty] = st
	if g.seals[faulty] != nil {
		g.seals[faulty] = integrity.SealState(st, g.step)
	}
	if verr := rj.verifyGeneration(rs, g); verr != nil {
		rj.dropPoisonedGeneration(rs, g)
		return nil, rj.restoreVerified(rs, attempt,
			fmt.Errorf("core: %s recovery of rank %d found a poisoned generation: %w (original fault: %w)", what, faulty, verr, cause))
	}
	return g, nil
}

// localizedRestore rebuilds a single failed rank from its buddy's
// in-memory copy while the survivors restore their own re-verified
// snapshots. kind is "localized" (suspect rebuild in place) or
// "respawn" (permanently dead rank replaced from a spare — same data
// path, different ledger).
func (rj *ResilientJob) localizedRestore(rs *ResilientStats, kind string, faulty, attempt int, cause error) error {
	g, err := rj.rebuildFromBuddy(rs, "localized", faulty, attempt, cause)
	if g == nil {
		return err
	}
	sp := rj.Job.Obs.T().Begin(0, "core."+kind, "model")
	restore(rj.local, g.own)
	sp.End()
	rj.rewindTo(g)
	if kind == "respawn" {
		rs.Respawns++
	} else {
		rs.Localized++
	}
	rj.record(rs, RecoveryEvent{Kind: kind, Step: g.step, Attempt: attempt, Rank: faulty, Err: cause})
	return nil
}

// shrinkRestore removes a permanently dead rank: the checkpoint-time
// global state is reassembled from the survivors' re-verified own
// snapshots plus the dead rank's buddy copy (using the pre-shrink
// plans), the job is repartitioned over n-1 ranks, and the reassembled
// state is scattered onto the new layout. The supervised slice is
// replaced — see States(). The old partition's generations cannot
// restore the new world, so the ring is audited out and restarted with
// a fresh checkpoint on the reduced layout.
func (rj *ResilientJob) shrinkRestore(rs *ResilientStats, dead, attempt int, cause error) error {
	g, err := rj.rebuildFromBuddy(rs, "shrink", dead, attempt, cause)
	if g == nil {
		return err
	}
	sp := rj.Job.Obs.T().Begin(0, "core.shrink", "model")
	gstate := rj.Job.Gather(g.own) // pre-shrink plans: checkpoint-time global state
	if serr := rj.Job.Shrink(dead); serr != nil {
		sp.End()
		return rj.globalFallback(rs, attempt,
			fmt.Errorf("core: shrinking away rank %d failed: %w (original fault: %w)", dead, serr, cause))
	}
	rj.local = rj.Job.Scatter(gstate)
	sp.End()
	rj.Job.SetStepCount(g.step)
	rj.Job.TotalPrecip = g.precip
	rj.auditAllGenerations(rs)
	rj.gens = nil
	// The pools were shaped for the old partition: drop them with the
	// ring. A fresh checkpoint round on the reduced world: new own
	// snapshots, new buddy assignment, new seals.
	rj.spare, rj.enc, rj.repl = genStorage{}, nil, nil
	if err := rj.takeCheckpoint(rs, g.step); err != nil {
		return err
	}
	rs.Shrinks++
	rj.record(rs, RecoveryEvent{Kind: "shrink", Step: g.step, Attempt: attempt, Rank: dead, Err: cause})
	return nil
}

// globalFallback is the bottom rung when every retained generation is
// lost or poisoned: reload the disk checkpoint if there is one,
// otherwise give up with the freshest verifiable state restored
// best-effort.
func (rj *ResilientJob) globalFallback(rs *ResilientStats, attempt int, cause error) error {
	if rj.DiskPath != "" {
		g, step, err := LoadCheckpoint(rj.DiskPath)
		if err == nil && step != rj.diskStep {
			err = fmt.Errorf("disk checkpoint at step %d, want %d", step, rj.diskStep)
		}
		if err == nil {
			locals := rj.Job.Scatter(g)
			for r := range rj.local {
				rj.local[r].CopyFrom(locals[r])
			}
			rj.Job.SetStepCount(rj.diskStep)
			rj.Job.TotalPrecip = rj.diskPrecip
			rj.Job.installSeals(nil)
			// Restart the ring from the disk bits.
			rj.auditAllGenerations(rs)
			rj.gens = nil
			if rerr := rj.takeCheckpoint(rs, rj.diskStep); rerr != nil {
				return rerr
			}
			rs.Rollbacks++
			rj.record(rs, RecoveryEvent{Kind: "rollback", Step: rj.diskStep, Attempt: attempt, Rank: -1, Err: cause})
			return nil
		}
		cause = fmt.Errorf("%w; disk fallback also failed: %w", cause, err)
	}
	// Nothing left to restore from: hand back what survives and the
	// full diagnosis.
	rj.bestEffortRestore(rs)
	rj.auditAllGenerations(rs)
	rj.record(rs, RecoveryEvent{Kind: "giveup", Step: rj.checkpointStep(), Attempt: attempt, Rank: -1, Err: cause})
	return fmt.Errorf("core: recovery ladder exhausted at step %d (best-effort state restored): %w", rj.checkpointStep(), cause)
}

// exchangeBuddies runs the buddy replication round for a new checkpoint
// generation: each rank encodes its state (v2 checkpoint format with
// CRC) into its staging buffer, verifies the encoding in place BEFORE
// shipping — a snapshot that rotted between encode and ship must never
// overwrite the partner's last good copy — and sends it to rank (r+1)%n
// over the message runtime, which receives it straight into g's
// storage. A replica becomes visible in g.buddy only when every ship
// completed. The replication network is modeled reliable (no fault
// injection): the fault plan's operation counters are threaded only
// through the computation worlds, keeping the chaos schedule independent
// of the checkpoint cadence. Its world is kept between checkpoints, so
// its mailbox freelists stay warm, and replaced when the world size
// changes or a ship fails (a poisoned world stays poisoned).
func (rj *ResilientJob) exchangeBuddies(rs *ResilientStats, g *ckptGeneration) error {
	n := rj.Job.NRanks
	if n == 1 {
		// Its own buddy: the encoding is the replica.
		e, err := rj.encodeVerified(0, g.step, g.store[0])
		if err != nil {
			return err
		}
		g.store[0], g.buddy[0] = e, e
		return nil
	}
	if len(rj.enc) != n {
		rj.enc = make([][]float64, n)
	}
	if rj.repl == nil || rj.repl.Size() != n {
		rj.repl = mpirt.NewWorld(n)
	}
	w := rj.repl
	w.SetTracer(rj.Job.Obs.T())
	sent := w.TotalBytes()
	if rj.shipBody == nil {
		rj.shipBody = rj.shipRank
	}
	rj.shipGen = g
	err := w.Run(rj.shipBody)
	rj.shipGen = nil
	rs.BuddyBytes += w.TotalBytes() - sent
	if err != nil {
		rj.repl = nil
		return fmt.Errorf("core: buddy replication at step %d: %w", g.step, err)
	}
	copy(g.buddy, g.store)
	return nil
}

// shipRank is one rank's body of the buddy replication round for
// generation shipGen: encode and verify its own snapshot, ship it to
// rank r+1 and receive rank r-1's replica into the generation's storage.
func (rj *ResilientJob) shipRank(c *mpirt.Comm) {
	g, n, r := rj.shipGen, rj.Job.NRanks, c.Rank()
	e, eerr := rj.encodeVerified(r, g.step, rj.enc[r])
	if eerr != nil {
		mpirt.Fail(eerr)
	}
	rj.enc[r] = e
	buddy := (r + 1) % n
	prev := (r - 1 + n) % n
	var sz [1]float64
	sz[0] = float64(len(e))
	c.Send(buddy, tagBuddySize, sz[:])
	c.Send(buddy, tagBuddyData, e)
	c.Recv(prev, tagBuddySize, sz[:])
	// Rank r now holds the copy of rank prev.
	words := int(sz[0])
	g.store[prev] = slices.Grow(g.store[prev][:0], words)[:words]
	c.Recv(prev, tagBuddyData, g.store[prev])
}

// encodeVerified encodes rank r's live state into buf's storage and
// verifies the encoding in place, PreShipHook between the two.
func (rj *ResilientJob) encodeVerified(r, step int, buf []float64) ([]float64, error) {
	encode := func() (err error) {
		if buf, err = encodeRankSnapshotInto(buf, rj.local[r], step); err == nil && rj.PreShipHook != nil {
			rj.PreShipHook(r, buf)
		}
		return err
	}
	if err := encode(); err != nil {
		return nil, err
	}
	reg := rj.Job.Obs.R()
	reg.Counter("integrity.preship.checks").Add(1)
	if VerifyRankSnapshot(buf) == nil {
		return buf, nil
	}
	reg.Counter("integrity.preship.rejects").Add(1)
	// Re-encode once from the live state: a flip that landed in the
	// encoded words (not the state) is repaired locally. A second failure
	// means the state itself cannot serialize cleanly — do not ship it.
	if err := encode(); err != nil {
		return nil, err
	}
	if verr := VerifyRankSnapshot(buf); verr != nil {
		return nil, fmt.Errorf("%w: rank %d snapshot fails pre-ship verification: %w", integrity.ErrCorrupt, r, verr)
	}
	return buf, nil
}

// fetchBuddy retrieves and decodes generation g's buddy-held copy of a
// failed rank's checkpoint, shipping it from the buddy's rank to the
// failed rank's slot over a recovery world (survivors wait at the
// barrier). The decode verifies framing, dimensions, the checkpoint
// CRC, the checkpoint step, and the shape expected by the failed rank's
// plan.
func (rj *ResilientJob) fetchBuddy(rs *ResilientStats, g *ckptGeneration, faulty int) (*dycore.State, error) {
	if g.buddy[faulty] == nil {
		return nil, fmt.Errorf("%w: no buddy copy of rank %d", ErrBuddySnapshot, faulty)
	}
	enc := g.buddy[faulty]
	n := rj.Job.NRanks
	host := (faulty + 1) % n
	var st *dycore.State
	var step int
	var derr error
	if host == faulty {
		st, step, derr = DecodeRankSnapshot(enc)
	} else {
		w := mpirt.NewWorld(n)
		w.SetTracer(rj.Job.Obs.T())
		err := w.Run(func(c *mpirt.Comm) {
			switch c.Rank() {
			case host:
				c.Send(faulty, tagBuddySize, []float64{float64(len(enc))})
				c.Send(faulty, tagBuddyData, enc)
			case faulty:
				sz := make([]float64, 1)
				c.Recv(host, tagBuddySize, sz)
				buf := make([]float64, int(sz[0]))
				c.Recv(host, tagBuddyData, buf)
				st, step, derr = DecodeRankSnapshot(buf)
			}
			// The recovery barrier: survivors wait here until the
			// rebuilt rank has its state back.
			c.Barrier()
		})
		rs.BuddyBytes += w.TotalBytes()
		if err != nil {
			return nil, err
		}
	}
	if derr != nil {
		return nil, derr
	}
	if step != g.step {
		return nil, fmt.Errorf("%w: buddy copy of rank %d at step %d, want %d", ErrBuddySnapshot, faulty, step, g.step)
	}
	if st.NElem() != rj.local[faulty].NElem() {
		return nil, fmt.Errorf("%w: buddy copy of rank %d has %d elements, want %d",
			ErrBuddySnapshot, faulty, st.NElem(), rj.local[faulty].NElem())
	}
	return st, nil
}

// persist writes the gathered global state to DiskPath, if configured,
// and records the step/precip pair the disk fallback will rewind to.
func (rj *ResilientJob) persist(local []*dycore.State, step int) error {
	if rj.DiskPath == "" {
		return nil
	}
	g := rj.Job.Gather(local)
	if err := SaveCheckpoint(rj.DiskPath, g, step); err != nil {
		return fmt.Errorf("core: persisting checkpoint at step %d: %w", step, err)
	}
	rj.diskStep = step
	rj.diskPrecip = rj.Job.TotalPrecip
	return nil
}
