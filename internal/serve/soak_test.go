package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
)

// TestServiceChaosSoak is the serving layer's survival drill: seeded
// member kills fire while the load generator hammers the service.
// The contract under fire:
//
//   - zero 5xx and zero transport errors reach clients (stale serves
//     are 200s with a header — degradation is not failure);
//   - readiness, once up, never flaps while healthy members keep
//     publishing (MinReady=1 and member 0 is never killed);
//   - the killed member is restarted by the supervisor, and every
//     snapshot it publishes after recovery is bit-identical to the
//     fault-free reference trajectory of the same seed.
func TestServiceChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped in -short")
	}

	mkConfig := func(kills KillPlan) Config {
		cfg := dycore.DefaultConfig(2)
		cfg.Nlev = 4
		cfg.Qsize = 1
		return Config{
			Members:    3,
			Dycore:     cfg,
			Backend:    exec.Athread,
			Ranks:      2,
			CycleSteps: 1,
			// A forecast horizon, as the service runs with: free-running
			// ne2 members blow up in the remap past cycle 400, which a
			// fast enough host reaches inside the soak.
			MaxCycles:  120,
			DynWorkers: 1,
			IC:         "vortex",
			Seed:       1234,
			Kills:      kills,
			// Wide recovery windows so the load generator reliably
			// observes mid-recovery (stale) serving.
			RestartBackoff:  120 * time.Millisecond,
			MaxBackoff:      250 * time.Millisecond,
			QuarantineAfter: 5,
		}
	}
	kills, err := ParseKillPlan("1@2,1@5,2@3")
	if err != nil {
		t.Fatal(err)
	}

	type snap = map[string][]byte
	record := func(dst snap, mu *sync.Mutex) func(int, int, []byte) {
		return func(member, step int, data []byte) {
			mu.Lock()
			defer mu.Unlock()
			key := fmt.Sprintf("%d@%d", member, step)
			if prev, ok := dst[key]; ok && string(prev) != string(data) {
				t.Errorf("member %d republished step %d with different bytes", member, step)
			}
			dst[key] = data
		}
	}

	// Fault-free reference trajectory, same seed, run synchronously.
	ref, refMu := snap{}, sync.Mutex{}
	refSup, err := NewSupervisor(mkConfig(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	refSup.store.OnPublish = record(ref, &refMu)
	if err := refSup.RunCycles(40); err != nil {
		t.Fatal(err)
	}

	// The supervised run under kills and load.
	got, gotMu := snap{}, sync.Mutex{}
	probe := obs.NewProbe()
	sup, err := NewSupervisor(mkConfig(kills), probe)
	if err != nil {
		t.Fatal(err)
	}
	sup.store.OnPublish = record(got, &gotMu)
	srv := NewServer(sup, ServerConfig{MaxConcurrent: 8, MaxQueue: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sup.Start()
	defer sup.Stop()

	// Warm up: wait for every member's first snapshot so the load
	// window measures steady-state degradation, not boot. The kills
	// (cycles 2, 3, 5) fire after this point, inside the window.
	warmDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(warmDeadline) {
		ready := 0
		for i := range sup.members {
			if _, ok := sup.store.Latest(i); ok {
				ready++
			}
		}
		if ready == len(sup.members) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Readiness watcher: after the first 200, /readyz must stay 200 for
	// the whole soak — a subset of members recovering is not a reason
	// to stop advertising the service.
	stopReady := make(chan struct{})
	readyErr := make(chan error, 1)
	go func() {
		defer close(readyErr)
		sawReady := false
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-stopReady:
				if !sawReady {
					readyErr <- fmt.Errorf("readiness never came up")
				}
				return
			case <-time.After(10 * time.Millisecond):
			}
			resp, err := client.Get(ts.URL + "/readyz")
			if err != nil {
				readyErr <- fmt.Errorf("readyz transport error: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				sawReady = true
			} else if sawReady {
				readyErr <- fmt.Errorf("readiness flapped: %d after being ready", resp.StatusCode)
				return
			}
		}
	}()

	res, err := RunLoad(LoadConfig{
		BaseURL:  ts.URL,
		Duration: 2500 * time.Millisecond,
		Workers:  4,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stopReady)
	if err := <-readyErr; err != nil {
		t.Error(err)
	}

	if res.Requests == 0 {
		t.Fatal("load generator completed zero requests")
	}
	if res.Transport > 0 {
		t.Errorf("%d transport-level failures under load", res.Transport)
	}
	if res.Errors5xx > 0 {
		t.Errorf("%d responses were 5xx; degradation must serve stale 200s, statuses: %v",
			res.Errors5xx, res.ByStatus)
	}
	if res.Stale == 0 {
		t.Error("no stale serves observed: recovery windows were never visible to clients")
	}

	// Let the killed members finish recovering, then stop publishing.
	recovered := func(m *Member) bool {
		st := m.State()
		return st == MemberRunning || st == MemberCompleted
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sup.members[1].Restarts() >= 2 && sup.members[2].Restarts() >= 1 &&
			recovered(sup.members[1]) && recovered(sup.members[2]) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sup.Stop()

	if r := sup.members[1].Restarts(); r < 2 {
		t.Errorf("member 1 restarts = %d, want >= 2 (two kills scheduled)", r)
	}
	if r := sup.members[2].Restarts(); r < 1 {
		t.Errorf("member 2 restarts = %d, want >= 1", r)
	}
	for i, m := range sup.members {
		if st := m.State(); st == MemberQuarantined {
			t.Errorf("member %d quarantined; kills were transient, restarts should succeed", i)
		}
	}

	// Bit-identity: every snapshot the faulted run published at a step
	// the reference also reached must match byte for byte — including
	// everything the killed members published after restarting from
	// their snapshots.
	gotMu.Lock()
	defer gotMu.Unlock()
	compared := 0
	for key, data := range got {
		refData, ok := ref[key]
		if !ok {
			continue // the faulted run outran the 40-cycle reference
		}
		compared++
		if string(data) != string(refData) {
			t.Errorf("snapshot %s diverged from the fault-free reference", key)
		}
	}
	if compared < 10 {
		t.Errorf("only %d snapshots overlapped the reference; soak too short to mean anything", compared)
	}
	if n := probe.Reg.CounterValue("serve.member.restarts"); n < 3 {
		t.Errorf("serve.member.restarts = %d, want >= 3", n)
	}
}

// TestMemberForecastHorizonCompletes: a member that integrates out to
// MaxCycles stops there by design — state "completed", final snapshot
// still served, and not labeled stale (a finished forecast is a
// product, not a degradation).
func TestMemberForecastHorizonCompletes(t *testing.T) {
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 4
	cfg.Qsize = 1
	sup, err := NewSupervisor(Config{
		Members:    2,
		Dycore:     cfg,
		Backend:    exec.Intel,
		Ranks:      2,
		CycleSteps: 1,
		MaxCycles:  3,
		IC:         "barowave",
		Seed:       5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sup.members[0].State() == MemberCompleted && sup.members[1].State() == MemberCompleted {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	sup.Stop()
	for i, m := range sup.members {
		if st := m.State(); st != MemberCompleted {
			t.Fatalf("member %d state = %v, want completed", i, st)
		}
		meta, ok := sup.store.Latest(i)
		if !ok || meta.Version != 3 || meta.Step != 3 {
			t.Errorf("member %d final snapshot meta = %+v, want version/step 3", i, meta)
		}
	}
	// The completed forecast serves fresh, not stale.
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/field?member=0&field=PS&nlon=8&nlat=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completed member field read = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(headerStale); got != "" {
		t.Errorf("completed member served with stale header %q", got)
	}
	// The synchronous path honors the horizon too: further cycles are
	// no-ops, not errors.
	if err := sup.RunCycles(2); err != nil {
		t.Fatalf("RunCycles past horizon: %v", err)
	}
	if meta, _ := sup.store.Latest(0); meta.Version != 3 {
		t.Errorf("RunCycles advanced past the horizon: %+v", meta)
	}
}

// TestSupervisorQuarantineAfterRepeatedCrashes: a member that keeps
// dying is quarantined, not restarted forever — and the rest of the
// ensemble keeps serving.
func TestSupervisorQuarantineAfterRepeatedCrashes(t *testing.T) {
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 4
	cfg.Qsize = 1
	// Kill member 1 at every one of its first six cycles: with
	// QuarantineAfter=2 the supervisor gives up on the third
	// consecutive crash.
	kills, err := ParseKillPlan("1@0,1@0,1@0,1@0,1@0,1@0")
	if err != nil {
		t.Fatal(err)
	}
	probe := obs.NewProbe()
	sup, err := NewSupervisor(Config{
		Members:         2,
		Dycore:          cfg,
		Backend:         exec.Intel,
		Ranks:           2,
		CycleSteps:      1,
		DynWorkers:      1,
		IC:              "barowave",
		Seed:            9,
		Kills:           kills,
		RestartBackoff:  time.Millisecond,
		MaxBackoff:      2 * time.Millisecond,
		QuarantineAfter: 2,
	}, probe)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && sup.members[1].State() != MemberQuarantined {
		time.Sleep(5 * time.Millisecond)
	}
	// The quarantine must not stop the rest of the ensemble: member 0
	// keeps integrating and publishing afterwards.
	for time.Now().Before(deadline) {
		if meta, ok := sup.store.Latest(0); ok && meta.Version >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	sup.Stop()

	if st := sup.members[1].State(); st != MemberQuarantined {
		t.Fatalf("member 1 state = %v, want quarantined", st)
	}
	if sup.members[1].LastError() == "" {
		t.Error("quarantined member reports no last error")
	}
	if st := sup.members[0].State(); st != MemberStopped {
		t.Fatalf("member 0 state = %v, want stopped after drain", st)
	}
	if n := probe.Reg.CounterValue("serve.member.quarantines"); n != 1 {
		t.Errorf("quarantine counter = %d, want 1", n)
	}
	// The healthy member kept publishing throughout.
	if meta, ok := sup.store.Latest(0); !ok || meta.Version < 3 {
		t.Errorf("member 0 published %+v; expected continuous service", meta)
	}
}
