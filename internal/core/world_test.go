package core

import (
	"math"
	"runtime"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// worldTestJob builds a 4-rank Intel job over a small baroclinic wave
// with one tracer, and its scattered initial state.
func worldTestJob(t *testing.T) (*ParallelJob, []*dycore.State) {
	t.Helper()
	cfg := testDycoreCfg(2, 4, 1)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
	s.InitCosineBellTracer(g, 0, 1, 0, 0.5)
	job, err := NewParallelJob(cfg, exec.Intel, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	return job, job.Scatter(g)
}

// mpirtTotals reads the registry counters World.DumpStats publishes
// (all but mpirt.coll.ns, which is wall time).
func mpirtTotals(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{"mpirt.send.msgs", "mpirt.send.bytes", "mpirt.recv.msgs",
		"mpirt.recv.bytes", "mpirt.retx.attempts", "mpirt.retx.recovered", "mpirt.coll.ops"} {
		out[name] = reg.CounterValue(name)
	}
	return out
}

// TestChunkedRunsMatchOneRun: RunChecked called ten times for two steps
// — on the one world the job keeps — gives the state, the kernel Cost,
// the halo.Stats totals and the mpirt.* registry totals of one 20-step
// run. Counters that leaked from one chunk into the next would count
// the early chunks' traffic again.
func TestChunkedRunsMatchOneRun(t *testing.T) {
	const chunks, chunk = 10, 2
	run := func(calls, steps int) (uint64, RunStats, map[string]int64) {
		job, local := worldTestJob(t)
		job.Obs = &obs.Probe{Reg: obs.NewRegistry()}
		var total RunStats
		var w *mpirt.World
		for i := 0; i < calls; i++ {
			st, err := job.RunChecked(local, steps)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				w = job.world
			} else if job.world != w {
				t.Fatalf("call %d ran on a new world; a job keeps one", i)
			}
			total.Halo.Add(st.Halo)
			total.Cost.Add(st.Cost)
			total.RetxAttempts += st.RetxAttempts
		}
		total.Cost.Backend = exec.Intel
		return StateFNV(job.Gather(local)), total, mpirtTotals(job.Obs.R())
	}
	wantHash, want, wantReg := run(1, chunks*chunk)
	gotHash, got, gotReg := run(chunks, chunk)
	if gotHash != wantHash {
		t.Errorf("state hash %016x after %d chunks, %016x after one run", gotHash, chunks, wantHash)
	}
	if got.Cost != want.Cost {
		t.Errorf("chunked Cost %+v, one run %+v", got.Cost, want.Cost)
	}
	if got.Halo != want.Halo {
		t.Errorf("chunked halo.Stats %+v, one run %+v", got.Halo, want.Halo)
	}
	if want.Halo.Msgs == 0 || wantReg["mpirt.send.msgs"] == 0 {
		t.Fatal("no traffic counted")
	}
	for name, v := range wantReg {
		if gotReg[name] != v {
			t.Errorf("%s = %d after %d chunks, %d after one run", name, gotReg[name], chunks, v)
		}
	}
}

// TestWarmChunksAllocateNoPayloads: once a job's world is warm, a
// 2-step chunk allocates no message payloads — its mailbox freelists
// serve every send. Measured marginally, like TestCanonicalSumsZeroAlloc:
// the bytes of 20 more chunks over the bytes of 10, per step. What
// remains (the rank goroutines of each run) must stay well under one
// exchange's payload, which a world built per chunk allocates several
// times over every step.
func TestWarmChunksAllocateNoPayloads(t *testing.T) {
	job, local := worldTestJob(t)
	const chunk = 2
	var perStepWire int64
	for i := 0; i < 3; i++ {
		st, err := job.RunChecked(local, chunk)
		if err != nil {
			t.Fatal(err)
		}
		perStepWire = st.Halo.WireBytes / chunk
	}
	// Each side is the least of three tries, so that an allocation of
	// the runtime's own during one try does not count.
	bytes := func(chunks int) float64 {
		least := math.Inf(1)
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < chunks; i++ {
				if _, err := job.RunChecked(local, chunk); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			least = min(least, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		return least
	}
	few, many := bytes(10), bytes(30)
	perStep := max(0, many-few) / (20 * chunk)
	// An exchange per kernel that precedes a DSS: two RK stages, two
	// hyperviscosity passes per subcycle and two tracer stages.
	exchanges := 4 + 2*job.Cfg.HypervisSubcycle
	perExchange := float64(perStepWire) / float64(exchanges)
	if perStep > perExchange/8 {
		t.Errorf("warm 2-step chunks allocate %.0f bytes per step, want under an eighth of one exchange's payload (%.0f bytes)",
			perStep, perExchange)
	}
}

// TestWarmChunkAllocatesOnlyItsRankBody: once a job is warm — its
// world, its engines' workers and LDM plans, its step scratch — stepping
// allocates nothing, on the serial Intel lowering and on the Athread CPE
// lowering: a 6-step chunk on four ranks allocates no more than a 2-step
// one, and a 2-step chunk allocates one object, the rank-body closure
// RunChecked hands World.Run. Each count is the least of three tries.
// The marginal count holds under the race detector too. The absolute one
// is checked without it: under the detector's schedules the pools that
// only grow, mpirt's mailbox buffers (mailbox.getBuf) and sw's CPE crews
// (borrowCrew), now and then meet a new peak of messages or launches in
// flight, and the try that grows one counts it.
func TestWarmChunkAllocatesOnlyItsRankBody(t *testing.T) {
	for _, b := range []exec.Backend{exec.Intel, exec.Athread} {
		job, local := worldTestJob(t)
		if b != exec.Intel {
			var err error
			if job, err = NewParallelJob(job.Cfg, b, true, 4); err != nil {
				t.Fatal(err)
			}
		}
		allocs := func(steps int) float64 {
			run := func() {
				if _, err := job.RunChecked(local, steps); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm
			least := math.Inf(1)
			for try := 0; try < 3; try++ {
				least = min(least, testing.AllocsPerRun(3, run))
			}
			return least
		}
		two, six := allocs(2), allocs(6)
		if perStep := (six - two) / 4; perStep > 0 {
			t.Errorf("%v: a warm chunk allocates %.2f times per step (2 steps: %.2f, 6 steps: %.2f), want 0", b, perStep, two, six)
		}
		if !raceEnabled && two > 1 {
			t.Errorf("%v: a warm 2-step chunk allocates %.2f times, want at most the rank-body closure", b, two)
		}
	}
}

// TestFailedRunGetsFreshWorld: a run that fails poisons its world, so
// the job drops it; the replay from a checkpoint runs on a new world
// and reproduces the fault-free trajectory bit for bit.
func TestFailedRunGetsFreshWorld(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] * 2 / 3, Kind: mpirt.KillRank})
	local := job.Scatter(cs.global)
	const first = 2
	if _, err := job.RunChecked(local, first); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	healthy := job.world
	ckpt := snapshot(local)

	if _, err := job.RunChecked(local, cs.steps-first); err == nil {
		t.Fatal("the scheduled kill did not fire")
	}
	if job.world != nil {
		t.Fatal("the job kept the world its failed run poisoned")
	}
	for r := range local {
		local[r].CopyFrom(ckpt[r])
	}
	job.SetStepCount(first)
	if _, err := job.RunChecked(local, cs.steps-first); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if job.world == nil || job.world == healthy {
		t.Fatal("the replay did not run on a new world")
	}
	cs.assertBitIdentical(t, job.Gather(local))
}
