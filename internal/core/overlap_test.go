package core

import (
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// TestOverlapDifferentialSweep is the end-to-end differential for the
// §7.6 redesign: with the boundary-first split feeding a real inner
// computation into DSSOverlap's window, the overlap run must stay
// bit-identical (FNV-64 over raw float bits) to the original blocking
// exchange for every backend, intra-rank worker count, and rank count —
// and, because both the DSS chains and the reductions are
// partition-invariant, one hash per backend must cover the whole sweep.
// The instrumented counters additionally pin that multi-rank overlap
// runs actually opened windows (computeInner was non-nil for every DSS)
// and skipped the staging copy.
func TestOverlapDifferentialSweep(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 1)
	global, err := randomizedGlobal(cfg, 20260806)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2

	// Serial anchor: the distributed runs agree with the serial Solver
	// to rounding (the serial code groups some sums differently, so this
	// comparison is tolerance-based, unlike the exact sweep below).
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := global.Clone()
	for i := 0; i < steps; i++ {
		s.Step(serial)
	}

	type result struct {
		hash     uint64
		stats    RunStats
		windows  int64
		gathered *dycore.State
	}
	run := func(t *testing.T, b exec.Backend, overlap bool, ranks, workers int) result {
		t.Helper()
		job, err := NewParallelJob(cfg, b, overlap, ranks)
		if err != nil {
			t.Fatal(err)
		}
		job.SetDynWorkers(workers)
		probe := &obs.Probe{Reg: obs.NewRegistry()}
		job.Instrument(probe)
		local := job.Scatter(global)
		stats, err := job.RunChecked(local, steps)
		if err != nil {
			t.Fatal(err)
		}
		g := job.Gather(local)
		return result{
			hash:     StateFNV(g),
			stats:    stats,
			windows:  probe.Reg.CounterValue("halo.overlap.windows"),
			gathered: g,
		}
	}

	for _, b := range exec.Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			var ref uint64
			first := true
			for _, ranks := range []int{1, 2, 4} {
				for _, workers := range []int{1, 4} {
					orig := run(t, b, false, ranks, workers)
					over := run(t, b, true, ranks, workers)
					if over.hash != orig.hash {
						t.Errorf("ranks=%d workers=%d: overlap hash %x != original %x",
							ranks, workers, over.hash, orig.hash)
					}
					if first {
						ref = orig.hash
						first = false
					} else if orig.hash != ref {
						t.Errorf("ranks=%d workers=%d: hash %x varies with partition/workers (ref %x)",
							ranks, workers, orig.hash, ref)
					}
					if ranks > 1 {
						if over.windows == 0 {
							t.Errorf("ranks=%d workers=%d: overlap run opened no windows (computeInner never ran)",
								ranks, workers)
						}
						if over.stats.Halo.StagingBytes != 0 {
							t.Errorf("ranks=%d workers=%d: overlap run still staging", ranks, workers)
						}
						if orig.stats.Halo.StagingBytes == 0 {
							t.Errorf("ranks=%d workers=%d: original run reported no staging copies", ranks, workers)
						}
						if over.stats.Halo.WireBytes != orig.stats.Halo.WireBytes {
							t.Errorf("ranks=%d workers=%d: wire traffic depends on flavour", ranks, workers)
						}
					} else if over.windows != 0 {
						t.Errorf("workers=%d: single-rank run claims overlap windows", workers)
					}
					if b == exec.Intel && ranks == 1 && workers == 1 {
						if d := over.gathered.MaxAbsDiff(serial); d > 1e-7 {
							t.Errorf("Intel distributed run differs from serial Solver by %g", d)
						}
					}
				}
			}
		})
	}
}

// TestOverlapMidExchangeFaultRecovery kills a rank and corrupts a
// payload while DSS messages are in flight — every point-to-point op in
// a step IS a halo exchange op, so a fault on one lands mid-exchange:
// the killed rank unwinds through mpirt.Fail between the boundary
// (Open) and inner (Close) kernel halves, its peers unwind inside their
// receive drains, and the engines are left holding stale split state.
// The ladder supervisor must still finish and reproduce the fault-free
// trajectory bit for bit, proving both the unwind path and the
// stale-Open discard work end to end. Swept over several fault offsets
// so the kill lands in different exchanges of the step.
func TestOverlapMidExchangeFaultRecovery(t *testing.T) {
	cs := newChaosSetup(t)
	for _, tc := range []struct {
		name string
		frac func(ops int64) int64
	}{
		{"early", func(ops int64) int64 { return ops / 3 }},
		{"mid", func(ops int64) int64 { return ops / 2 }},
		{"late", func(ops int64) int64 { return ops * 2 / 3 }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := mpirt.NewFaultPlan(cs.nranks).
				Add(mpirt.Fault{Rank: 1, AfterOp: tc.frac(cs.ops[1]), Kind: mpirt.KillRank}).
				Add(mpirt.Fault{Rank: 0, AfterOp: tc.frac(cs.ops[0]) + 7, Kind: mpirt.CorruptMsg})

			job := cs.newJob(t)
			job.Faults = plan
			job.RecvTimeout = 2 * time.Second
			rj := NewResilientJob(job)
			rj.Mode = ModeLadder
			rj.CheckpointEvery = 1
			rj.MaxRetries = 10
			rj.Backoff = time.Millisecond
			rj.Spares = 1

			local := job.Scatter(cs.global)
			rs, err := rj.Run(local, cs.steps)
			if err != nil {
				t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
			}
			if pending := plan.Pending(); len(pending) != 0 {
				t.Fatalf("faults never fired: %+v", pending)
			}
			if rs.Run.Steps != cs.steps {
				t.Errorf("finished at step %d, want %d", rs.Run.Steps, cs.steps)
			}
			cs.assertBitIdentical(t, job.Gather(local))
		})
	}
}
