package core

import (
	"math"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/perf"
	"swcam/internal/physics"
)

func testDycoreCfg(ne, nlev, qsize int) dycore.Config {
	cfg := dycore.DefaultConfig(ne)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	return cfg
}

// The central integration test: the distributed driver (partitioned
// mesh, per-rank engines, halo exchanges, allreduce mass fixer) must
// reproduce the serial Solver to rounding for the Intel backend (same
// arithmetic everywhere) across several full steps including remap.
func TestParallelMatchesSerialIntel(t *testing.T) {
	cfg := testDycoreCfg(4, 8, 2)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	s.InitCosineBellTracer(ref, 0, math.Pi/2, 0.2, 0.7)
	s.InitCosineBellTracer(ref, 1, math.Pi, -0.3, 0.5)
	global := ref.Clone()

	const steps = 4
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}

	for _, nranks := range []int{1, 3, 6} {
		job, err := NewParallelJob(cfg, exec.Intel, true, nranks)
		if err != nil {
			t.Fatal(err)
		}
		local := job.Scatter(global)
		stats := job.Run(local, steps)
		got := job.Gather(local)
		if d := got.MaxAbsDiff(ref); d > 1e-7 {
			t.Errorf("nranks=%d: parallel differs from serial by %g", nranks, d)
		}
		if nranks > 1 && stats.Halo.WireBytes == 0 {
			t.Errorf("nranks=%d: no halo traffic", nranks)
		}
		if stats.Cost.Flops() == 0 {
			t.Errorf("nranks=%d: no kernel cost accounted", nranks)
		}
	}
}

// The Athread backend (vertical scans over register communication,
// vectorized kernels) must agree with serial to scan-regrouping
// rounding, through full distributed steps.
func TestParallelAthreadMatchesSerial(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 1)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	s.InitCosineBellTracer(ref, 0, math.Pi/2, 0.2, 0.7)
	global := ref.Clone()
	const steps = 3
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}
	job, err := NewParallelJob(cfg, exec.Athread, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := job.Scatter(global)
	stats := job.Run(local, steps)
	got := job.Gather(local)
	// Scale: T ~ 300 K, dp ~ 1e4 Pa; 1e-6 absolute is ~1e-10 relative.
	if d := got.MaxAbsDiff(ref); d > 1e-5 {
		t.Errorf("Athread parallel differs from serial by %g", d)
	}
	if stats.Cost.RegMsgs == 0 {
		t.Error("Athread run used no register communication")
	}
	if stats.Cost.FlopsVector == 0 {
		t.Error("Athread run retired no vector flops")
	}
}

// Both exchange flavours produce identical results; the redesigned one
// must move fewer staged bytes (§7.6).
func TestParallelOverlapVsOriginal(t *testing.T) {
	cfg := testDycoreCfg(4, 8, 1)
	s, _ := dycore.NewSolver(cfg)
	g := s.NewState()
	s.InitBaroclinicWave(g)
	s.InitCosineBellTracer(g, 0, 1, 0, 0.5)

	run := func(overlap bool) (*dycore.State, RunStats) {
		job, err := NewParallelJob(cfg, exec.Intel, overlap, 4)
		if err != nil {
			t.Fatal(err)
		}
		local := job.Scatter(g)
		stats := job.Run(local, 2)
		return job.Gather(local), stats
	}
	a, sa := run(false)
	b, sb := run(true)
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("exchange flavours diverge by %g", d)
	}
	if sa.Halo.StagingBytes == 0 {
		t.Error("original exchange reported no staging copies")
	}
	if sb.Halo.StagingBytes != 0 {
		t.Error("redesigned exchange still staging")
	}
	if sa.Halo.WireBytes != sb.Halo.WireBytes {
		t.Error("wire traffic should not depend on the flavour")
	}
}

func TestModelMoistRunStable(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 3
	cfg.PhysEvery = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitBaroclinicWave(m.State)
	// Moisten the boundary layer so the moist schemes engage.
	npsq := m.Solver.Cfg.Np * m.Solver.Cfg.Np
	for ei := range m.State.Qdp {
		qdp := m.State.QdpAt(ei, 0)
		for k := 0; k < m.Solver.Cfg.Nlev; k++ {
			for n := 0; n < npsq; n++ {
				i := k*npsq + n
				sig := float64(k+1) / float64(m.Solver.Cfg.Nlev)
				qdp[i] = 0.016 * math.Pow(sig, 3) * m.State.DP[ei][i]
			}
		}
	}
	m.Run(6)
	if w := m.Solver.MaxWind(m.State); w > 300 || math.IsNaN(w) {
		t.Fatalf("wind blew up: %v", w)
	}
	for ei := range m.State.T {
		for _, v := range m.State.T[ei] {
			if v < 120 || v > 400 || math.IsNaN(v) {
				t.Fatalf("unphysical T %v", v)
			}
		}
	}
	if m.TotalPrecip < 0 || math.IsNaN(m.TotalPrecip) {
		t.Fatalf("bad precip accumulation %v", m.TotalPrecip)
	}
	if m.SimHours() <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestModelHeldSuarezDrivesJets(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 0
	cfg.Physics = physics.HeldSuarezMode
	cfg.PhysEvery = 1
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitRest(m.State, 280)
	m.Run(30)
	// The HS forcing must have produced motion (baroclinicity -> wind)
	// while keeping the run stable.
	w := m.Solver.MaxWind(m.State)
	if w <= 0.01 || w > 300 || math.IsNaN(w) {
		t.Fatalf("HS run wind = %v", w)
	}
	// Equator warmer than poles near the surface.
	zm := m.Solver.ZonalMeanT(m.State, m.Solver.Cfg.Nlev-1, 9)
	if !(zm[4] > zm[0] && zm[4] > zm[8]) {
		t.Errorf("no equator-pole contrast: %v", zm)
	}
}

// Figure 4's claim: control (Intel) and test (Athread) hardware produce
// the same climate. We run the same Held-Suarez case through the serial
// solver and the Athread distributed driver and compare zonal-mean
// temperature — the paper's comparison metric.
func TestClimatologyBackendEquivalence(t *testing.T) {
	cfg := testDycoreCfg(2, 8, 0)
	s, _ := dycore.NewSolver(cfg)
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	g := ref.Clone()
	const steps = 6
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}
	job, err := NewParallelJob(cfg, exec.Athread, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	local := job.Scatter(g)
	job.Run(local, steps)
	got := job.Gather(local)

	zmRef := s.ZonalMeanT(ref, cfg.Nlev-1, 12)
	zmGot := s.ZonalMeanT(got, cfg.Nlev-1, 12)
	for b := range zmRef {
		if d := math.Abs(zmRef[b] - zmGot[b]); d > 1e-6 {
			t.Errorf("band %d: zonal-mean T differs by %g K between backends", b, d)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PhysEvery = 0
	if _, err := NewModel(cfg); err == nil {
		t.Error("PhysEvery=0 accepted")
	}
	cfg = DefaultConfig(4)
	cfg.Dycore.Qsize = 0 // moist physics without vapour tracer
	if _, err := NewModel(cfg); err == nil {
		t.Error("moist physics without tracers accepted")
	}
	cfg = DefaultConfig(4)
	cfg.Dycore.Ne = 0
	if _, err := NewModel(cfg); err == nil {
		t.Error("bad dycore config accepted")
	}
}

func TestSurfaceTProfile(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Dycore.Nlev = 8
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.SurfaceT(0) != cfg.SST {
		t.Error("equatorial SST wrong")
	}
	if m.SurfaceT(math.Pi/2) >= m.SurfaceT(0) {
		t.Error("poles should be colder")
	}
}

// Partition ablation: the SFC partition must produce far less halo
// traffic than round-robin in a real distributed run — the reason
// HOMME (and this driver) order elements along a space-filling curve.
func TestSFCPartitionReducesHaloTraffic(t *testing.T) {
	cfg := testDycoreCfg(4, 8, 0)
	s, _ := dycore.NewSolver(cfg)
	g := s.NewState()
	s.InitBaroclinicWave(g)

	traffic := func(job *ParallelJob) int64 {
		local := job.Scatter(g)
		stats := job.Run(local, 1)
		return stats.Halo.WireBytes
	}
	sfcJob, err := NewParallelJob(cfg, exec.Intel, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	sfcBytes := traffic(sfcJob)

	// Round-robin assignment: worst-case locality.
	rrJob, err := NewParallelJob(cfg, exec.Intel, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	for id := range rrJob.RankOf {
		rrJob.RankOf[id] = id % 8
	}
	// Rebuild plans and engines for the new assignment.
	rr, err := newJobWithPartition(cfg, exec.Intel, true, 8, rrJob.RankOf)
	if err != nil {
		t.Fatal(err)
	}
	rrBytes := traffic(rr)
	if sfcBytes*2 > rrBytes {
		t.Errorf("SFC halo %d B not well below round-robin %d B", sfcBytes, rrBytes)
	}
}

// Column physics is embarrassingly parallel: any worker count must give
// bit-identical results (CAM's chunk decomposition), INCLUDING the
// global precipitation reduction — per-element partials merge in fixed
// element order, so not even the last ULP may move.
func TestPhysicsWorkersEquivalent(t *testing.T) {
	mk := func(workers int) *Model {
		cfg := DefaultConfig(4)
		cfg.Dycore.Nlev = 8
		cfg.Dycore.Qsize = 3
		cfg.PhysEvery = 1
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
	serial := mk(1)
	parallel := mk(7)
	serial.Run(3)
	parallel.Run(3)
	if d := serial.State.MaxAbsDiff(parallel.State); d != 0 {
		t.Errorf("physics workers changed the answer by %g", d)
	}
	if serial.TotalPrecip != parallel.TotalPrecip {
		t.Errorf("precip accumulation differs: %v vs %v", serial.TotalPrecip, parallel.TotalPrecip)
	}
	if serial.TotalPrecip <= 0 {
		t.Errorf("run produced no precipitation — the comparison is vacuous")
	}
}

// Cross-validation of the two performance layers: modeled kernel time
// from the FUNCTIONAL simulator's measured counters must scale down as
// ranks are added (the work divides), with sub-linear speedup (the halo
// grows) — the measured-counter analogue of the analytic strong-scaling
// model in internal/perf.
func TestMeasuredCountersStrongScaling(t *testing.T) {
	cfg := testDycoreCfg(4, 8, 1)
	s, _ := dycore.NewSolver(cfg)
	g := s.NewState()
	s.InitBaroclinicWave(g)

	perRankTime := func(nranks int) (compute float64, wire int64) {
		job, err := NewParallelJob(cfg, exec.Athread, true, nranks)
		if err != nil {
			t.Fatal(err)
		}
		local := job.Scatter(g.Clone())
		stats := job.Run(local, 2)
		// Max-loaded rank approximated by even division (SFC balance).
		c := stats.Cost
		c.MaxCPEFlops /= int64(nranks) // aggregate max is summed across ranks
		c.MemBytes /= int64(nranks)
		c.DMAOps /= int64(nranks)
		c.RegMsgs /= int64(nranks)
		return perf.KernelTime(c), stats.Halo.WireBytes
	}
	t2, w2 := perRankTime(2)
	t8, w8 := perRankTime(8)
	if t8 >= t2 {
		t.Errorf("modeled per-rank time did not drop with ranks: %g -> %g", t2, t8)
	}
	// Total halo traffic grows with the number of ranks (more cut edges).
	if w8 <= w2 {
		t.Errorf("total halo traffic should grow with ranks: %d -> %d", w2, w8)
	}
	// Speedup is sublinear: 4x ranks buys less than 4x.
	if t2/t8 >= 4 {
		t.Errorf("superlinear measured speedup %g is implausible", t2/t8)
	}
}

// CAM's real vertical resolution (30 levels, not divisible by the 8 CPE
// mesh rows) through the full distributed Athread pipeline.
func TestParallelAthreadCAMLevels(t *testing.T) {
	cfg := testDycoreCfg(2, 30, 1)
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.NewState()
	s.InitBaroclinicWave(ref)
	s.InitCosineBellTracer(ref, 0, 1.5, 0.1, 0.6)
	global := ref.Clone()
	const steps = 2
	for i := 0; i < steps; i++ {
		s.Step(ref)
	}
	job, err := NewParallelJob(cfg, exec.Athread, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := job.Scatter(global)
	job.Run(local, steps)
	got := job.Gather(local)
	if d := got.MaxAbsDiff(ref); d > 1e-5 {
		t.Errorf("nlev=30 Athread distributed run differs from serial by %g", d)
	}
}

// SurfaceT returns the prescribed SST at a latitude.
func (m *Model) SurfaceT(lat float64) float64 {
	return surfaceT(lat, m.Cfg.SST, m.Cfg.SSTDelta)
}
