package core

import (
	"math"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

// everyNodeOracle is the physics loop the column map replaced: every
// element-local node stepped on its own, serially, in element then node
// order, each element's (precip·SphereMP, SphereMP) partial folded in
// node order into r.parts. It shares only the column step itself with
// the live runner.
func everyNodeOracle(r *physRunner, st *dycore.State, dt float64) (precip, area float64) {
	r.st, r.dt = st, dt
	col := r.cols[0]
	for le, e := range r.elems {
		var ps, as float64
		for n := 0; n < r.npsq; n++ {
			ps += r.stepColumn(col, le, n) * e.SphereMP[n]
			as += e.SphereMP[n]
		}
		r.parts[le] = physPartial{ps, as}
		precip += ps
		area += as
	}
	r.st = nil
	return precip, area
}

// moistGlobal is the benchmark's moist initial condition on cfg: the
// baroclinic wave, the vapor load in tracer 0, and a seeded
// perturbation.
func moistGlobal(t *testing.T, cfg dycore.Config, seed int64) *dycore.State {
	t.Helper()
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
	npsq := cfg.Np * cfg.Np
	for ei := range g.Qdp {
		qdp := g.QdpAt(ei, 0)
		for k := 0; k < cfg.Nlev; k++ {
			sig := float64(k+1) / float64(cfg.Nlev)
			for n := 0; n < npsq; n++ {
				qdp[k*npsq+n] = 0.014 * sig * sig * g.DP[ei][k*npsq+n]
			}
		}
	}
	PerturbInitial(g, seed, 0.01)
	return g
}

// physJob builds a job with physics on, its pool sized and seeded.
func physJob(t *testing.T, cfg dycore.Config, ranks int, mode physics.SuiteMode, workers int, seed uint64) *ParallelJob {
	t.Helper()
	job, err := NewParallelJob(cfg, exec.Intel, true, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.EnablePhysics(mode, 1, 302, 30); err != nil {
		t.Fatal(err)
	}
	job.SetPhysPoolForTest(workers, seed)
	return job
}

// physFn is one rank's physics phase: the live runner or the oracle.
type physFn func(r *physRunner, st *dycore.State, dt float64) (float64, float64)

func livePhys(r *physRunner, st *dycore.State, dt float64) (float64, float64) {
	return r.run(st, dt)
}

// drivenRun advances job steps steps with the physics phase driven by
// the test: the dynamics run inside the job with physics switched off,
// then perturb edits the rank states, phys runs on every rank, and the
// partials are reduced in ascending global element order exactly as
// canonicalPrecip does. With the ledger, watchdog and scrubber off, the
// physics phase is the last thing a step does, so this is the job's own
// trajectory with the phase swapped out.
func drivenRun(t *testing.T, job *ParallelJob, local []*dycore.State, steps int,
	phys physFn, perturb func(step int, local []*dycore.State)) {
	t.Helper()
	pc := job.phys
	dt := job.Cfg.Dt * float64(pc.every)
	parts := make([]physPartial, job.Mesh.NElems())
	for s := 1; s <= steps; s++ {
		job.phys = nil
		_, err := job.RunChecked(local, 1)
		job.phys = pc
		if err != nil {
			t.Fatal(err)
		}
		if perturb != nil {
			perturb(s, local)
		}
		for r, rp := range job.rankPhys {
			phys(rp, local[r], dt)
			for le, ge := range job.Plans[r].Elems {
				parts[ge] = rp.parts[le]
			}
		}
		var p, a float64
		for _, x := range parts {
			p += x.precip
			a += x.area
		}
		if a > 0 {
			job.TotalPrecip += p / a
		}
	}
}

// followers counts the columns rank runners copied in their last step.
func followers(rs ...*physRunner) int {
	n := 0
	for _, r := range rs {
		for _, f := range r.follow {
			if f {
				n++
			}
		}
	}
	return n
}

// The column map is exact: for the serial Model and for ParallelJob at
// 1–4 ranks, across phys worker counts, steal seeds and both suites,
// the live runner — each unique column stepped once, its outputs copied
// to the duplicates — reproduces the every-node oracle's StateFNV and
// TotalPrecip bits.
func TestPhysColumnMapMatchesEveryNodeOracle(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 3)
	const steps = 3
	global := moistGlobal(t, cfg, 5)
	modes := []physics.SuiteMode{physics.Moist, physics.HeldSuarezMode}

	for _, mode := range modes {
		// Serial Model: Model.Run against the same step loop with the
		// oracle as the physics phase.
		newModel := func() *Model {
			m, err := NewModel(Config{Dycore: cfg, Physics: mode, PhysEvery: 1, SST: 302, SSTDelta: 30})
			if err != nil {
				t.Fatal(err)
			}
			m.State.CopyFrom(global)
			return m
		}
		ref := newModel()
		for i := 0; i < steps; i++ {
			ref.Solver.Step(ref.State)
			p, a := everyNodeOracle(ref.phys, ref.State, cfg.Dt)
			ref.TotalPrecip += p / a
		}
		refHash := StateFNV(ref.State)
		if mode == physics.Moist && ref.TotalPrecip <= 0 {
			t.Fatal("oracle run produced no precipitation — the sweep is vacuous")
		}
		for _, workers := range []int{1, 2, 4} {
			for _, seed := range []uint64{0, 5} {
				m := newModel()
				m.SetPhysPoolForTest(workers, seed)
				m.Run(steps)
				if followers(m.phys) == 0 {
					t.Fatalf("mode=%d model: no column followed its owner — the map is empty", mode)
				}
				if h := StateFNV(m.State); h != refHash {
					t.Errorf("mode=%d model workers=%d seed=%d: StateFNV %016x, oracle %016x", mode, workers, seed, h, refHash)
				}
				if math.Float64bits(m.TotalPrecip) != math.Float64bits(ref.TotalPrecip) {
					t.Errorf("mode=%d model workers=%d seed=%d: TotalPrecip %v, oracle %v", mode, workers, seed, m.TotalPrecip, ref.TotalPrecip)
				}
			}
		}

		// ParallelJob: the job's own step loop against the driven
		// trajectory with the oracle as every rank's physics phase.
		for ranks := 1; ranks <= 4; ranks++ {
			oj := physJob(t, cfg, ranks, mode, 1, 0)
			olocal := oj.Scatter(global)
			drivenRun(t, oj, olocal, steps, everyNodeOracle, nil)
			oHash := StateFNV(oj.Gather(olocal))
			for _, workers := range []int{1, 2, 4} {
				for _, seed := range []uint64{0, 7} {
					job := physJob(t, cfg, ranks, mode, workers, seed)
					local := job.Scatter(global)
					if _, err := job.RunChecked(local, steps); err != nil {
						t.Fatal(err)
					}
					if followers(job.rankPhys...) == 0 {
						t.Fatalf("mode=%d ranks=%d: no column followed its owner — the map is empty", mode, ranks)
					}
					if h := StateFNV(job.Gather(local)); h != oHash {
						t.Errorf("mode=%d ranks=%d workers=%d seed=%d: StateFNV %016x, oracle %016x",
							mode, ranks, workers, seed, h, oHash)
					}
					if math.Float64bits(job.TotalPrecip) != math.Float64bits(oj.TotalPrecip) {
						t.Errorf("mode=%d ranks=%d workers=%d seed=%d: TotalPrecip %v, oracle %v",
							mode, ranks, workers, seed, job.TotalPrecip, oj.TotalPrecip)
					}
				}
			}
		}
	}
}

// The guard keeps the result exact for any input: a duplicate whose T,
// or one of whose Qdp rows, is one ulp off its owner's just before the
// physics phase — a resident-state flip the scrubber has not caught,
// say — is stepped on its own rather than overwritten with the owner's
// outputs, so the run still equals the every-node oracle.
func TestPhysColumnGuardStepsPerturbedDuplicate(t *testing.T) {
	cfg := testDycoreCfg(3, 8, 3)
	const ranks, steps = 2, 3
	global := moistGlobal(t, cfg, 9)
	npsq := cfg.Np * cfg.Np

	for _, field := range []string{"T", "Qdp"} {
		// flip nudges one ulp of level k of the chosen duplicate column
		// on rank 0 at the last step; the same column on every run, since
		// the job shapes (and so the maps) are identical. k < 0 leaves
		// the run unperturbed.
		flip := func(job *ParallelJob, k int) (int, func(int, []*dycore.State)) {
			d := job.rankPhys[0].dups[len(job.rankPhys[0].dups)/2]
			return d.copy.Elem*npsq + d.copy.Node, func(step int, local []*dycore.State) {
				if step != steps || k < 0 {
					return
				}
				row := local[0].T[d.copy.Elem]
				if field == "Qdp" {
					row = local[0].QdpAt(d.copy.Elem, 0)
				}
				i := k*npsq + d.copy.Node
				row[i] = math.Nextafter(row[i], math.Inf(1))
			}
		}
		run := func(phys physFn, k int) (uint64, float64, *ParallelJob, int) {
			job := physJob(t, cfg, ranks, physics.Moist, 2, 3)
			local := job.Scatter(global)
			c, perturb := flip(job, k)
			drivenRun(t, job, local, steps, phys, perturb)
			return StateFNV(job.Gather(local)), job.TotalPrecip, job, c
		}
		// A one-ulp change can round away inside the column step (a
		// vapor row that only goes through /dp and *dp, say), so take
		// the lowest level at which the oracle shows the flip.
		cleanHash, _, _, _ := run(everyNodeOracle, -1)
		k, oHash, oPrecip := cfg.Nlev, cleanHash, 0.0
		for oHash == cleanHash && k > 0 {
			k--
			oHash, oPrecip, _, _ = run(everyNodeOracle, k)
		}
		if oHash == cleanHash {
			t.Fatalf("%s: no one-ulp flip reaches the state — the guard case pins nothing", field)
		}
		h, p, job, c := run(livePhys, k)
		if job.rankPhys[0].follow[c] {
			t.Errorf("%s: the perturbed duplicate still followed its owner", field)
		}
		if h != oHash {
			t.Errorf("%s: StateFNV %016x, oracle %016x", field, h, oHash)
		}
		if math.Float64bits(p) != math.Float64bits(oPrecip) {
			t.Errorf("%s: TotalPrecip %v, oracle %v", field, p, oPrecip)
		}
	}
}

// A follower takes its owner's latitude only when the bits agree: the
// map never pairs columns whose Lat differs, and every pair it keeps
// is a true duplicate of the same GLL node. On the mesh every copy's
// latitude agrees, so the serial Model steps exactly CAM-SE's physics
// grid, ncol = 6·ne²·(np−1)²+2 columns.
func TestPhysColumnMapPairsOnlyEqualLatitudes(t *testing.T) {
	cfg := testDycoreCfg(4, 8, 3)
	m, err := NewModel(Config{Dycore: cfg, Physics: physics.Moist, PhysEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ncol := 6*cfg.Ne*cfg.Ne*(cfg.Np-1)*(cfg.Np-1) + 2
	if got := len(m.phys.follow) - len(m.phys.dups); got != ncol {
		t.Errorf("serial model steps %d unique columns, want ncol = %d", got, ncol)
	}
	job := physJob(t, cfg, 3, physics.Moist, 1, 0)
	for r, rp := range job.rankPhys {
		if len(rp.dups) == 0 {
			t.Fatalf("rank %d: empty column map", r)
		}
		for _, d := range rp.dups {
			ce, oe := rp.elems[d.copy.Elem], rp.elems[d.owner.Elem]
			if math.Float64bits(ce.Lat[d.copy.Node]) != math.Float64bits(oe.Lat[d.owner.Node]) {
				t.Errorf("rank %d: %+v follows %+v across different latitudes", r, d.copy, d.owner)
			}
			if ce.GlobalNode[d.copy.Node] != oe.GlobalNode[d.owner.Node] {
				t.Errorf("rank %d: %+v and %+v are different GLL nodes", r, d.copy, d.owner)
			}
		}
	}
}

// physics.columns counts only the columns actually stepped and
// physics.columns.followed the copies, so a traced run shows the
// duplicate ratio. At the moist-phys shape (ne4, L16, 3 tracers, 2
// ranks, 10 steps) 5740 of the 15 360 element-local column steps copy
// their owner instead of stepping.
func TestPhysColumnsFollowedCounter(t *testing.T) {
	cfg := testDycoreCfg(4, 16, 3)
	const steps = 10
	job := physJob(t, cfg, 2, physics.Moist, 2, 0)
	p := obs.NewProbe()
	job.Instrument(p)
	local := job.Scatter(moistGlobal(t, cfg, 1))
	if _, err := job.RunChecked(local, steps); err != nil {
		t.Fatal(err)
	}
	stepped := p.R().CounterValue("physics.columns")
	followed := p.R().CounterValue("physics.columns.followed")
	total := int64(steps * job.Mesh.NElems() * cfg.Np * cfg.Np)
	if stepped+followed != total {
		t.Errorf("stepped %d + followed %d = %d column steps, want %d", stepped, followed, stepped+followed, total)
	}
	if followed != 5740 {
		t.Errorf("followed %d of %d column steps, want 5740", followed, total)
	}
}
