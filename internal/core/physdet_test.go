package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"swcam/internal/exec"
	"swcam/internal/physics"
)

// moistTestModel builds a small moist model with seeded vapor, the
// shared fixture of the physics determinism and allocation tests.
func moistTestModel(t *testing.T, workers int) *Model {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 3
	cfg.PhysEvery = 2
	cfg.PhysWorkers = workers
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitBaroclinicWave(m.State)
	npsq := m.Solver.Cfg.Np * m.Solver.Cfg.Np
	for ei := range m.State.Qdp {
		qdp := m.State.QdpAt(ei, 0)
		for k := 0; k < m.Solver.Cfg.Nlev; k++ {
			sig := float64(k+1) / 8
			for n := 0; n < npsq; n++ {
				qdp[k*npsq+n] = 0.014 * sig * sig * m.State.DP[ei][k*npsq+n]
			}
		}
	}
	return m
}

// The serial-model determinism sweep: for every worker count and every
// victim-scan seed (i.e. every steal schedule), a multi-step run must
// reproduce the workers=1 reference exactly — FNV-64 state hash,
// TotalPrecip bits, and the pool's chunk ledger.
func TestModelPhysicsDeterministicAcrossSchedules(t *testing.T) {
	run := func(workers int, seed uint64) (uint64, float64, int64) {
		m := moistTestModel(t, 1)
		m.SetPhysPoolForTest(workers, seed)
		m.Run(6)
		return StateFNV(m.State), m.TotalPrecip, m.PhysStats().Chunks
	}
	refHash, refPrecip, refChunks := run(1, 0)
	if refPrecip <= 0 {
		t.Fatal("reference run produced no precipitation — sweep is vacuous")
	}
	if refChunks == 0 {
		t.Fatal("reference run scheduled no physics chunks")
	}
	for _, workers := range []int{2, 4, 8} {
		for _, seed := range []uint64{0, 3, 11} {
			h, p, ch := run(workers, seed)
			if h != refHash {
				t.Errorf("workers=%d seed=%d: state hash %016x, want %016x", workers, seed, h, refHash)
			}
			if p != refPrecip {
				t.Errorf("workers=%d seed=%d: TotalPrecip %v, want %v", workers, seed, p, refPrecip)
			}
			if ch != refChunks {
				t.Errorf("workers=%d seed=%d: %d chunks, want %d", workers, seed, ch, refChunks)
			}
		}
	}
}

// The distributed determinism sweep, end-to-end: a multi-rank run with
// halo exchanges, hyperviscosity, tracers, vertical remap AND the
// physics phase must be bit-identical — state hash, TotalPrecip, and
// Cost/Halo counters — across physics worker counts and steal
// schedules, per backend. Mirrors the exec tiling sweep one layer up.
func TestJobPhysicsDeterministicAcrossSchedules(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 2)
	const ranks, steps = 2, 4
	global, err := randomizedGlobal(cfg, 20260808)
	if err != nil {
		t.Fatal(err)
	}

	run := func(b exec.Backend, workers int, seed uint64) (uint64, float64, RunStats, int64) {
		job, err := NewParallelJob(cfg, b, true, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.EnablePhysics(physics.Moist, 2, 302, 30); err != nil {
			t.Fatal(err)
		}
		job.SetPhysPoolForTest(workers, seed)
		local := job.Scatter(global)
		stats := job.Run(local, steps)
		return StateFNV(job.Gather(local)), job.TotalPrecip, stats, job.PhysStats().Chunks
	}

	for _, b := range []exec.Backend{exec.Intel, exec.Athread} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			refHash, refPrecip, refStats, refChunks := run(b, 1, 0)
			if refPrecip <= 0 {
				t.Fatal("reference run produced no precipitation")
			}
			for _, workers := range []int{2, 4, 8} {
				for _, seed := range []uint64{0, 7} {
					h, p, stats, ch := run(b, workers, seed)
					if h != refHash {
						t.Errorf("workers=%d seed=%d: state hash %016x, want %016x", workers, seed, h, refHash)
					}
					if p != refPrecip {
						t.Errorf("workers=%d seed=%d: TotalPrecip %v, want %v", workers, seed, p, refPrecip)
					}
					if stats.Cost != refStats.Cost {
						t.Errorf("workers=%d seed=%d: kernel Cost diverged", workers, seed)
					}
					if stats.Halo != refStats.Halo {
						t.Errorf("workers=%d seed=%d: halo stats diverged", workers, seed)
					}
					if ch != refChunks {
						t.Errorf("workers=%d seed=%d: %d physics chunks, want %d", workers, seed, ch, refChunks)
					}
				}
			}
		})
	}
}

// Partition invariance of the physics phase: the canonical precip
// reduction (gather by global element id, sum ascending) must make the
// trajectory AND the precipitation diagnostic independent of the rank
// count, like the mass fixer before it.
func TestJobPhysicsPartitionInvariant(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 2)
	global, err := randomizedGlobal(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ranks int) (uint64, float64) {
		job, err := NewParallelJob(cfg, exec.Intel, true, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.EnablePhysics(physics.Moist, 2, 302, 30); err != nil {
			t.Fatal(err)
		}
		job.SetPhysWorkers(3)
		local := job.Scatter(global)
		job.Run(local, 4)
		return StateFNV(job.Gather(local)), job.TotalPrecip
	}
	refHash, refPrecip := run(1)
	if refPrecip <= 0 {
		t.Fatal("reference run produced no precipitation")
	}
	for _, ranks := range []int{2, 3} {
		h, p := run(ranks)
		if h != refHash {
			t.Errorf("ranks=%d: state hash %016x, want %016x", ranks, h, refHash)
		}
		if p != refPrecip {
			t.Errorf("ranks=%d: TotalPrecip %v, want %v", ranks, p, refPrecip)
		}
	}
}

// Work-stealing chaos at the job level: a panic raised inside a physics
// chunk — on whichever worker ends up running it, owner or thief (the
// straggler first chunk makes theft near-certain) — must fail the job
// cleanly with an error instead of hanging the world or leaking
// goroutines, and the job must run cleanly afterwards.
func TestJobPhysicsChunkPanicFailsCleanly(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 2)
	global, err := randomizedGlobal(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		job, err := NewParallelJob(cfg, exec.Intel, true, 2)
		if err != nil {
			t.Fatal(err)
		}
		var armed atomic.Bool
		armed.Store(true)
		job.PhysPanicHook = func(rank, worker, elem int) {
			if rank != 0 || !armed.Load() {
				return
			}
			if elem == 0 {
				time.Sleep(2 * time.Millisecond) // straggle: the rest of the range gets stolen
			}
			if elem == 6 && armed.CompareAndSwap(true, false) {
				panic("phys-chaos")
			}
		}
		if err := job.EnablePhysics(physics.Moist, 1, 302, 30); err != nil {
			t.Fatal(err)
		}
		job.SetPhysPoolForTest(4, seed)
		local := job.Scatter(global)
		if _, err := job.RunChecked(local, 2); err == nil {
			t.Fatalf("seed=%d: chunk panic did not fail the job", seed)
		}
		// Disarmed hook: the same job must complete a clean run.
		local = job.Scatter(global)
		job.SetStepCount(0)
		job.TotalPrecip = 0
		if _, err := job.RunChecked(local, 2); err != nil {
			t.Fatalf("seed=%d: job unusable after chunk panic: %v", seed, err)
		}
	}
}

// The precipitation accumulator must rewind with the state on recovery:
// a supervised run that loses a chunk to a physics panic and replays it
// must end with exactly the fault-free TotalPrecip — without the rewind
// the burned attempt's rain is double-counted.
func TestResilientRewindsPrecipOnRollback(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 2)
	global, err := randomizedGlobal(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inject bool) (uint64, float64, int) {
		job, err := NewParallelJob(cfg, exec.Intel, true, 2)
		if err != nil {
			t.Fatal(err)
		}
		var fired atomic.Int64
		if inject {
			// Fail the third physics application (step 3): the supervisor
			// has checkpointed at steps 1 and 2 by then, so the rollback
			// rewinds precipitation already accumulated by earlier steps.
			job.PhysPanicHook = func(rank, worker, elem int) {
				if rank == 0 && elem == 0 && fired.Add(1) == 3 {
					panic("phys-chaos")
				}
			}
		}
		if err := job.EnablePhysics(physics.Moist, 1, 302, 30); err != nil {
			t.Fatal(err)
		}
		job.SetPhysWorkers(2)
		rj := NewResilientJob(job)
		local := job.Scatter(global)
		rs, err := rj.Run(local, 4)
		if err != nil {
			t.Fatalf("inject=%v: supervised run failed: %v", inject, err)
		}
		return StateFNV(job.Gather(local)), job.TotalPrecip, rs.Rollbacks
	}
	refHash, refPrecip, _ := run(false)
	if refPrecip <= 0 {
		t.Fatal("fault-free run produced no precipitation")
	}
	h, p, rollbacks := run(true)
	if rollbacks == 0 {
		t.Fatal("injected physics panic caused no rollback — the test exercised nothing")
	}
	if h != refHash {
		t.Errorf("recovered state hash %016x, want fault-free %016x", h, refHash)
	}
	if p != refPrecip {
		t.Errorf("recovered TotalPrecip %v, want fault-free %v (double-counted replay?)", p, refPrecip)
	}
}

// The physics step — the serial driver's and every ParallelJob rank's,
// column map included — is allocation-free at steady state on one
// worker, and bounded by goroutine-launch machinery on several — the
// core-side face of the zero-alloc audit.
func TestModelPhysicsSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		budget := 0.0
		if workers > 1 {
			budget = float64(2 + 2*workers)
		}
		m := moistTestModel(t, workers)
		m.applyPhysics() // warm column scratch and the pool
		got := testing.AllocsPerRun(10, func() { m.applyPhysics() })
		if got > budget {
			t.Errorf("model workers=%d: %.1f allocs per physics step, budget %.0f", workers, got, budget)
		}

		job, err := NewParallelJob(m.Solver.Cfg, exec.Intel, true, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.EnablePhysics(physics.Moist, 1, 302, 30); err != nil {
			t.Fatal(err)
		}
		job.SetPhysWorkers(workers)
		local := job.Scatter(m.State)
		dt := job.Cfg.Dt
		for r, rp := range job.rankPhys {
			if len(rp.dups) == 0 {
				t.Fatalf("rank %d: empty column map", r)
			}
			rp.run(local[r], dt) // warm
			got := testing.AllocsPerRun(10, func() { rp.run(local[r], dt) })
			if got > budget {
				t.Errorf("job rank %d workers=%d: %.1f allocs per physics step, budget %.0f", r, workers, got, budget)
			}
		}
	}
}

// "Auto" physics pools follow GOMAXPROCS, not the host's CPU count: a
// process pinned to one P resolves to the serial fast path however
// large the grid.
func TestAutoPhysWorkersFollowGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if got := physics.DefaultStealWorkers(); got != 1 {
		t.Errorf("DefaultStealWorkers under GOMAXPROCS(1) = %d, want 1", got)
	}
	if got := resolvePhysWorkers(0, 1000); got != 1 {
		t.Errorf("resolvePhysWorkers(auto, 1000) under GOMAXPROCS(1) = %d, want 1", got)
	}
}

// On a machine with enough cores, parallel physics must beat serial
// wall-clock — the bench-regression smoke CI runs on >= 4-core runners.
// Fewer cores cannot demonstrate a speedup, so the test skips with a
// logged reason rather than asserting noise.
func TestParallelPhysicsSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("skipping speedup assertion: %d CPUs (< 4) cannot demonstrate parallel speedup", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	wall := func(workers int) time.Duration {
		m := moistTestModel(t, workers)
		m.applyPhysics() // warm
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			m.applyPhysics()
		}
		return time.Since(t0)
	}
	serial := wall(1)
	par := wall(4)
	// Demand a real margin (1.2x) rather than parity, but stay far from
	// the ideal 4x so shared CI runners don't flake.
	if float64(par) > float64(serial)/1.2 {
		t.Errorf("parallel physics (4 workers) %v not faster than serial %v", par, serial)
	}
	t.Logf("physics step: serial %v, 4 workers %v (%.2fx)", serial, par, float64(serial)/float64(par))
}

// SetPhysPoolForTest rebuilds the physics pool with an explicit worker
// count and victim-scan seed — the determinism sweep's schedule knob.
func (m *Model) SetPhysPoolForTest(n int, seed uint64) {
	m.Cfg.PhysWorkers = n
	m.phys = newPhysRunner(physWorkersRequest(n), seed, m.Suite, m.phys.physColumns)
	if m.obs != nil {
		m.phys.instrument(m.obs.R())
	}
}

// PhysStats snapshots the physics pool's cumulative scheduling activity.
func (m *Model) PhysStats() physics.StealStats { return m.phys.pool.Stats() }

// SetPhysPoolForTest rebuilds the physics pools with an explicit worker
// count and victim-scan seed — the determinism sweep's schedule knob.
func (j *ParallelJob) SetPhysPoolForTest(n int, seed uint64) {
	if j.phys == nil {
		return
	}
	j.phys.workersReq = n
	j.phys.seed = seed
	j.buildRankPhys()
}
