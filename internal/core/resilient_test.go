package core

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
)

// chaosSetup builds the shared scenario: a 3-rank distributed run over a
// small baroclinic-wave case, the fault-free reference trajectory, and a
// calibration of how many mpirt operations each rank performs — fault
// schedules are placed as fractions of that, so the test stays valid if
// the step's communication pattern evolves.
type chaosSetup struct {
	cfg    dycore.Config
	global *dycore.State
	ref    *dycore.State // fault-free final state after `steps`
	ops    []int64       // per-rank op counts of a fault-free run
	steps  int
	nranks int
}

func newChaosSetup(t *testing.T) *chaosSetup {
	t.Helper()
	cs := &chaosSetup{steps: 6, nranks: 3}
	cs.cfg = testDycoreCfg(2, 8, 1)
	s, err := dycore.NewSolver(cs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs.global = s.NewState()
	s.InitBaroclinicWave(cs.global)
	s.InitCosineBellTracer(cs.global, 0, 1, 0, 0.5)

	// Fault-free reference trajectory (plain job; the watchdog's
	// allreduce never modifies state, so it cannot change this).
	job := cs.newJob(t)
	local := job.Scatter(cs.global)
	job.Run(local, cs.steps)
	cs.ref = job.Gather(local)

	// Probe run with an empty plan attached to count ops per rank.
	probe := mpirt.NewFaultPlan(cs.nranks)
	job2 := cs.newJob(t)
	job2.Faults = probe
	local2 := job2.Scatter(cs.global)
	job2.Run(local2, cs.steps)
	cs.ops = make([]int64, cs.nranks)
	for r := 0; r < cs.nranks; r++ {
		cs.ops[r] = probe.Ops(r)
		if cs.ops[r] < 20 {
			t.Fatalf("rank %d performed only %d ops; fault placement would be degenerate", r, cs.ops[r])
		}
	}
	return cs
}

// newJob builds a job with the watchdog on — identical numerics to the
// plain configuration.
func (cs *chaosSetup) newJob(t *testing.T) *ParallelJob {
	t.Helper()
	job, err := NewParallelJob(cs.cfg, exec.Intel, true, cs.nranks)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckEvery = 2
	return job
}

func (cs *chaosSetup) assertBitIdentical(t *testing.T, got *dycore.State) {
	t.Helper()
	if d := got.MaxAbsDiff(cs.ref); d != 0 {
		t.Fatalf("recovered state differs from fault-free run by %g (must be bit-identical)", d)
	}
	for ei := range cs.ref.Phis {
		for n := range cs.ref.Phis[ei] {
			if got.Phis[ei][n] != cs.ref.Phis[ei][n] {
				t.Fatal("Phis differs after recovery")
			}
		}
	}
}

// The keystone chaos test: a multi-rank run with a rank kill, a payload
// corruption, a dropped message, and a delayed message injected mid-run
// must finish — recovering through checkpoint rollbacks — and produce
// the bit-identical final state of the fault-free run.
func TestResilientJobRecoversBitIdentical(t *testing.T) {
	cs := newChaosSetup(t)
	plan := mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] * 2 / 5, Kind: mpirt.KillRank}).
		Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] * 3 / 5, Kind: mpirt.CorruptMsg}).
		Add(mpirt.Fault{Rank: 2, AfterOp: cs.ops[2] * 4 / 5, Kind: mpirt.DropMsg}).
		Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] / 5, Kind: mpirt.DelayMsg, Delay: 5 * time.Millisecond})

	job := cs.newJob(t)
	job.Faults = plan
	job.RecvTimeout = 2 * time.Second
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 10
	rj.Backoff = time.Millisecond

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Rollbacks < 3 {
		t.Errorf("expected >=3 rollbacks (kill, corrupt, drop), got %d: %v", rs.Rollbacks, rs.Events)
	}
	if pending := plan.Pending(); len(pending) != 0 {
		t.Errorf("faults never fired: %+v", pending)
	}
	if rs.Run.Steps != cs.steps {
		t.Errorf("finished at step %d, want %d", rs.Run.Steps, cs.steps)
	}
	cs.assertBitIdentical(t, job.Gather(local))
}

// The same property under a seeded random chaos plan, with on-disk
// checkpointing enabled: the final state is still bit-identical and the
// last disk checkpoint matches it.
func TestResilientJobSurvivesSeededChaos(t *testing.T) {
	cs := newChaosSetup(t)
	minOps := cs.ops[0]
	for _, v := range cs.ops {
		if v < minOps {
			minOps = v
		}
	}
	plan := mpirt.NewChaosPlan(1234, cs.nranks, minOps, 5)

	job := cs.newJob(t)
	job.Faults = plan
	job.RecvTimeout = 2 * time.Second
	path := filepath.Join(t.TempDir(), "resilient.ck")
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 20
	rj.DiskPath = path

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Rollbacks == 0 {
		t.Errorf("chaos plan injected no recoverable fault: %v", plan.Pending())
	}
	got := job.Gather(local)
	cs.assertBitIdentical(t, got)

	disk, step, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("disk checkpoint unreadable: %v", err)
	}
	if step != cs.steps {
		t.Errorf("disk checkpoint at step %d, want %d", step, cs.steps)
	}
	if d := disk.MaxAbsDiff(got); d != 0 {
		t.Errorf("disk checkpoint differs from final state by %g", d)
	}
}

// A kill at the very first communication op — before the first
// checkpoint exists beyond the initial snapshot — still recovers: the
// rollback target is the step-0 snapshot taken at Run entry.
func TestResilientJobRecoversFromImmediateKill(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).Add(mpirt.Fault{Rank: 2, AfterOp: 1, Kind: mpirt.KillRank})
	rj := NewResilientJob(job)
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if rs.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", rs.Rollbacks)
	}
	cs.assertBitIdentical(t, job.Gather(local))
}

// The blowup watchdog: a NaN planted in one rank's initial state must be
// caught by the allreduced check on every rank (cooperative abort), and
// since the blowup replays deterministically, the retry budget exhausts
// and the supervisor degrades gracefully — best-effort state plus a
// diagnosis wrapping ErrBlowup, not a hang and not a panic.
func TestWatchdogCatchesBlowupAndDegradesGracefully(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.CheckEvery = 1
	rj := NewResilientJob(job)
	rj.MaxRetries = 2

	local := job.Scatter(cs.global)
	local[1].T[0][3] = math.NaN() // the blowup
	var events []RecoveryEvent
	rj.OnEvent = func(e RecoveryEvent) { events = append(events, e) }

	rs, err := rj.Run(local, cs.steps)
	if !errors.Is(err, ErrBlowup) {
		t.Fatalf("watchdog missed the blowup: %v", err)
	}
	if !errors.Is(err, dycore.ErrUnstable) {
		t.Errorf("diagnosis lost the State.Check detail: %v", err)
	}
	if rs.Rollbacks != rj.MaxRetries {
		t.Errorf("rollbacks = %d, want %d", rs.Rollbacks, rj.MaxRetries)
	}
	if len(events) == 0 || events[len(events)-1].Kind != "giveup" {
		t.Errorf("no giveup event recorded: %v", events)
	}
	// Best-effort state: the job is rewound to the last good checkpoint.
	if job.StepCount() != 0 {
		t.Errorf("step counter not rewound: %d", job.StepCount())
	}
}

// Chunked supervision must not change the answer even without faults:
// checkpoint cadence is semantically invisible (remap and watchdog
// cadences are driven by the global step counter, not the chunking).
// And both modes drive the one supervise loop: fault-free they differ
// only in the rung picker that is never called, so global and ladder
// must agree on the state bits, the checkpoint count and the event
// history (kinds and steps).
func TestResilientJobFaultFreeMatchesPlain(t *testing.T) {
	cs := newChaosSetup(t)
	type kindStep struct {
		kind string
		step int
	}
	for _, every := range []int{1, 2, 4} {
		var refHash uint64
		var refCkpts int
		var refEvents []kindStep
		for _, mode := range []string{ModeGlobal, ModeLadder} {
			job := cs.newJob(t)
			rj := NewResilientJob(job)
			rj.Mode = mode
			rj.CheckpointEvery = every
			rs, err := rj.Run(job.Scatter(cs.global), cs.steps)
			if err != nil {
				t.Fatalf("every=%d %s: %v", every, mode, err)
			}
			if rs.Rollbacks != 0 {
				t.Errorf("every=%d %s: spurious rollbacks: %v", every, mode, rs.Events)
			}
			got := job.Gather(rj.States())
			cs.assertBitIdentical(t, got)
			var events []kindStep
			for _, e := range rs.Events {
				events = append(events, kindStep{e.Kind, e.Step})
			}
			if mode == ModeGlobal {
				refHash, refCkpts, refEvents = StateFNV(got), rs.Checkpoints, events
				continue
			}
			if h := StateFNV(got); h != refHash {
				t.Errorf("every=%d: ladder StateFNV %016x != global %016x", every, h, refHash)
			}
			if rs.Checkpoints != refCkpts || !reflect.DeepEqual(events, refEvents) {
				t.Errorf("every=%d: ladder took %d checkpoints %v, global %d %v",
					every, rs.Checkpoints, events, refCkpts, refEvents)
			}
		}
	}
}

// RunChecked surfaces a kill as an error without advancing the step
// counter, and a plain Run (the legacy API) panics on the same fault —
// the two documented failure modes.
func TestRunCheckedReportsFault(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).Add(mpirt.Fault{Rank: 0, AfterOp: 5, Kind: mpirt.KillRank})
	local := job.Scatter(cs.global)
	_, err := job.RunChecked(local, cs.steps)
	if !errors.Is(err, mpirt.ErrKilled) {
		t.Fatalf("RunChecked gave %v, want ErrKilled", err)
	}
	var re *mpirt.RunError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("faulty rank not identified: %v", err)
	}
	if job.StepCount() != 0 {
		t.Errorf("step counter advanced on a failed run: %d", job.StepCount())
	}
}
