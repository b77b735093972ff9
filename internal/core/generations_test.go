package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/mpirt"
)

// snapshot deep-copies the per-rank states the way a first capture
// does: the allocating branch of capture, for the round-trip property
// in ladder_test.go.
func snapshot(local []*dycore.State) []*dycore.State {
	rj := &ResilientJob{Job: &ParallelJob{}, local: local}
	return rj.capture(0).own
}

// The stale-bytes invariant of the recycled ring: a capture that fails
// part-way hands its storage on with every replica cleared — not still
// holding the replicas of the generation that storage served before —
// and a later localized recovery restores the newest checkpoint's step,
// never the recycled bytes.
func TestRecycledSlotNeverServesStaleReplica(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.RecvTimeout = 2 * time.Second
	// Well after the failed capture and its replay: rank 1 dies once and
	// is rebuilt from the replica its buddy holds.
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1], Kind: mpirt.KillRank})
	rj := NewResilientJob(job)
	rj.Mode = ModeLadder
	rj.CheckpointEvery = 1
	rj.Generations = 2
	rj.MaxRetries = 5

	// With a ring of 2 the fourth capture is the first to run on recycled
	// storage (the opening generation's, evicted by the third push). Rot
	// both of rank 1's encodes there: the pre-ship check must refuse to
	// ship and the capture must fail.
	const failing = 4
	encodes := 0
	rj.PreShipHook = func(rank int, enc []float64) {
		if rank != 1 {
			return
		}
		if encodes++; encodes == failing || encodes == failing+1 {
			enc[len(enc)/2] = math.Float64frombits(math.Float64bits(enc[len(enc)/2]) ^ 1)
		}
	}
	lastCheckpoint, sawFailedCapture, localizedAt := -1, false, -1
	rj.OnEvent = func(e RecoveryEvent) {
		switch e.Kind {
		case "checkpoint":
			lastCheckpoint = e.Step
		case "rollback":
			// The corrupt capture just failed and was rolled back: its
			// storage waits in rj.spare, and must hold no replica at all.
			sawFailedCapture = true
			if len(rj.spare.own) != cs.nranks {
				t.Errorf("failed capture's storage was not retired for reuse: %d own slots", len(rj.spare.own))
			}
			for r, rep := range rj.spare.buddy {
				if rep != nil {
					t.Errorf("failed capture still holds a replica of rank %d (%d words) — the one its storage held before", r, len(rep))
				}
			}
			for _, g := range rj.gens {
				if g.step > lastCheckpoint {
					t.Errorf("failed capture at step %d entered the ring", g.step)
				}
			}
		case "localized":
			localizedAt = e.Step
			if e.Step != lastCheckpoint {
				t.Errorf("localized recovery restored step %d, newest checkpoint is step %d", e.Step, lastCheckpoint)
			}
		}
	}
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if !sawFailedCapture || rs.Rollbacks != 1 {
		t.Errorf("the rotten capture was not refused exactly once: rollbacks %d, events %v", rs.Rollbacks, rs.Events)
	}
	if rs.Localized != 1 {
		t.Errorf("rank 1's death was not rebuilt from its buddy replica (localized at step %d): %v", localizedAt, rs.Events)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// Storage comes back from a retired generation in whatever condition
// recovery left it: a copy nil'ed by a poisoning, a seal dropped with
// it, a copy of another shape. capture re-establishes every rank — and
// the new generation starts unaudited, with no replica.
func TestCaptureReestablishesDroppedCopies(t *testing.T) {
	rj, local := benchLadderJob(t)
	g := rj.capture(1)
	g.audited = true
	g.buddy[0] = []float64{1, 2, 3}
	g.own[1], g.seals[1] = nil, nil                         // markPoisoned
	g.own[2], g.seals[2] = dycore.NewState(1, 4, 2, 0), nil // another partition's shape
	g.own[3].T[0][0]++                                      // rot under a now-stale seal
	kept := g.own[3]
	rj.retire(g)
	if g.own != nil || g.buddy != nil {
		t.Fatal("a retired generation still holds storage")
	}

	g = rj.capture(2)
	if g.audited {
		t.Error("a capture on recycled storage starts audited")
	}
	if g.own[3] != kept {
		t.Error("an intact own copy was reallocated instead of copied into")
	}
	for r, st := range g.own {
		diffStateFields(t, st, local[r], "captured own copy")
		if g.seals[r] == nil || g.seals[r].Step != 2 {
			t.Fatalf("rank %d: seal %v, want one taken at step 2", r, g.seals[r])
		}
		if err := g.seals[r].Verify(st); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		if g.buddy[r] != nil {
			t.Errorf("rank %d: a replica outlived its generation", r)
		}
	}
}

// The ring and its pools belong to the ResilientJob, not to one Run:
// later Run calls capture into the storage earlier ones left, and a
// shrink drops everything shaped for the old partition and rebuilds it
// for n-1 ranks — all of it bit-identical to the fault-free run.
func TestGenerationRingSurvivesRunCallsAndShrink(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.RecvTimeout = 2 * time.Second
	rj := NewResilientJob(job)
	rj.Mode = ModeLadder
	rj.CheckpointEvery = 1
	rj.Generations = 2
	rj.MaxRetries = 4

	// Every state object the ring owns: retained generations + the spare.
	owned := func() map[*dycore.State]bool {
		set := map[*dycore.State]bool{}
		for _, st := range rj.spare.own {
			set[st] = true
		}
		for _, g := range rj.gens {
			for _, st := range g.own {
				set[st] = true
			}
		}
		return set
	}

	local := job.Scatter(cs.global)
	if _, err := rj.Run(local, 2); err != nil {
		t.Fatal(err)
	}
	before := owned()
	if want := (rj.Generations + 1) * cs.nranks; len(before) != want {
		t.Fatalf("after the first Run the ring owns %d states, want %d (ring of %d plus one spare, %d ranks)",
			len(before), want, rj.Generations, cs.nranks)
	}
	repl := rj.repl
	if _, err := rj.Run(rj.States(), 2); err != nil {
		t.Fatal(err)
	}
	for st := range owned() {
		if !before[st] {
			t.Fatal("the second Run allocated a new own state instead of capturing into the ring the first one left")
		}
	}
	if rj.repl != repl {
		t.Error("the replication world was rebuilt between fault-free checkpoints")
	}

	// Third call: rank 1 dies twice in a row and is shrunk away.
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 6, Kind: mpirt.KillRank}).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1]/6 + 10, Kind: mpirt.KillRank})
	rs, err := rj.Run(rj.States(), cs.steps-4)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Shrinks != 1 || job.NRanks != cs.nranks-1 {
		t.Fatalf("shrinks = %d, NRanks = %d, want 1 and %d (events: %v)", rs.Shrinks, job.NRanks, cs.nranks-1, rs.Events)
	}
	n := job.NRanks
	if len(rj.enc) != n || rj.repl == nil || rj.repl.Size() != n {
		t.Errorf("pools not rebuilt for %d ranks: %d staging buffers, replication world %v", n, len(rj.enc), rj.repl)
	}
	for st := range owned() {
		if before[st] {
			t.Fatal("a state shaped for the old partition survived the shrink")
		}
	}
	for _, g := range rj.gens {
		if len(g.own) != n || len(g.buddy) != n {
			t.Fatalf("generation at step %d holds %d own / %d buddy slots, want %d", g.step, len(g.own), len(g.buddy), n)
		}
		for r, st := range g.own {
			if st.NElem() != rj.States()[r].NElem() {
				t.Errorf("generation at step %d: rank %d copy has %d elements, live state %d", g.step, r, st.NElem(), rj.States()[r].NElem())
			}
		}
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// A warm checkpoint copies; it does not allocate. Once the ring has
// filled and one generation has been evicted (Generations+2 captures),
// a ladder checkpoint with integrity on allocates less than half of ONE
// rank's state — the reflective codec and the cloned ring allocated
// about fifteen states' worth per rank. Measured over many checkpoints
// so a goroutine stack or a tracer slot amortises away, the way
// canonical_test.go does it.
func TestSupervisedCheckpointSteadyStateAllocs(t *testing.T) {
	rj, local := benchLadderJob(t)
	var rs ResilientStats
	step := 0
	for ; step < rj.Generations+2; step++ {
		if err := rj.takeCheckpoint(&rs, step); err != nil {
			t.Fatal(err)
		}
	}
	const checkpoints = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < checkpoints; i++ {
		if err := rj.takeCheckpoint(&rs, step+i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perCheckpoint := float64(m1.TotalAlloc-m0.TotalAlloc) / checkpoints
	rankState := float64(8 * headerOf(local[0], 0).values())
	if perCheckpoint > rankState/2 {
		t.Errorf("a warm checkpoint of %d ranks allocates %.0f bytes, want under half of one rank's state (%.0f bytes)",
			len(local), perCheckpoint, rankState)
	}
	if rs.BuddyBytes == 0 {
		t.Error("no buddy replication traffic recorded")
	}
}
