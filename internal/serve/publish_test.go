package serve

import (
	"bytes"
	"runtime"
	"testing"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
)

// publishTestSupervisor is a two-member, two-rank ensemble with no
// probe attached, as the reference benchmark builds it.
func publishTestSupervisor(t *testing.T) *Supervisor {
	t.Helper()
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 4
	cfg.Qsize = 1
	sup, err := NewSupervisor(Config{
		Members: 2, Dycore: cfg, Backend: exec.Intel, Ranks: 2,
		CycleSteps: 1, IC: "vortex", Seed: 42,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

// TestPublishedSnapshotsMatchFreshGather: a member publishes from the
// global state it keeps, so every snapshot — over consecutive cycles
// and after a rebuild, which keeps that state — must be byte-equal to
// the encoding of a freshly allocated Gather of the member's locals. A
// field the kept state failed to refresh would differ here.
func TestPublishedSnapshotsMatchFreshGather(t *testing.T) {
	sup := publishTestSupervisor(t)
	published := 0
	sup.store.OnPublish = func(member, step int, data []byte) {
		m := sup.members[member]
		var want bytes.Buffer
		if err := core.WriteCheckpoint(&want, m.job.Gather(m.local), step); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Bytes()) {
			t.Errorf("member %d step %d: published snapshot differs from the encoding of a fresh Gather", member, step)
		}
		published++
	}
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	m := sup.members[1]
	kept := m.global
	if err := m.rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	if m.global != kept {
		t.Error("a rebuilt member built a new global state; the shape never changes, so it keeps the old one")
	}
	if want := 4 * len(sup.members); published != want {
		t.Errorf("%d snapshots compared, want %d", published, want)
	}
}

// TestWarmPublishCycleAllocs pins what a warm publish cycle allocates:
// per member, the rank-body closure of its chunk, the two checkpoint
// generations and the checkpoint event of its supervised run, and the
// published snapshot's descriptor — no copy of the global state, and
// nothing in the snapshot encode, which goes through the slot's kept
// CheckpointCodec.
func TestWarmPublishCycleAllocs(t *testing.T) {
	sup := publishTestSupervisor(t)
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if err := sup.RunCycles(1); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(5 * len(sup.members)); got > budget {
		t.Errorf("a warm publish cycle of %d members allocates %.1f times, budget %.0f", len(sup.members), got, budget)
	}
}

// TestSecondPublishCycleIsWarm: the first publish sizes both of a
// slot's alternating encode buffers, so already the second cycle
// allocates far less than one snapshot.
func TestSecondPublishCycleIsWarm(t *testing.T) {
	sup := publishTestSupervisor(t)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	snap := sup.store.slots[0].bufs[0].Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(snap) {
		t.Errorf("the second publish cycle of %d members allocated %d bytes; one snapshot is %d",
			len(sup.members), got, snap)
	}
}
