package main

import (
	"fmt"
	"runtime"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/halo"
	"swcam/internal/integrity"
	"swcam/internal/mesh"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
	"swcam/internal/perf"
	"swcam/internal/physics"
	"swcam/internal/serve"
	"swcam/internal/sw"
)

// haloReg receives the counters an instrumented halo.Plan publishes.
// The harness reads none of them: instrumenting is only what makes the
// exchanges time their receive waits into the public Stats.WaitNs.
var haloReg = obs.NewRegistry()

// layerCtx collects one traced pass's per-layer metrics. Every replay
// runs a layer's public calls on the workload's own shapes under a
// "replay.<layer>.<call>" span and times them with the harness's clocks.
type layerCtx struct {
	w  workload
	sh shape
	o  options
	tr *tracer
	fr *fullResult

	// CPU milliseconds per model step: the workload's own (the
	// denominator of the budget) and each replayed layer's share of it.
	cpuStep, cpuExec, cpuComm, cpuPhysics, cpuSupervisor float64
}

func newLayerCtx(w workload, sh shape, o options, tr *tracer, fr *fullResult) *layerCtx {
	return &layerCtx{w: w, sh: sh, o: o, tr: tr, fr: fr}
}

func (lc *layerCtx) set(name string, v float64) { lc.fr.set(perLayer, name, v) }

// Replay sizes; -quick shrinks them.
func (lc *layerCtx) iters(n int) int {
	if lc.o.quick {
		if n > 20 {
			return n / 20
		}
		return 1
	}
	return n
}

func (lc *layerCtx) replaySteps() int {
	if lc.o.quick {
		return 2
	}
	return 10
}

// timed runs f n times under one span and returns the low-decile wall
// milliseconds of a call.
func (lc *layerCtx) timed(span string, n int, f func()) float64 {
	end := lc.tr.begin("replay." + span)
	defer end()
	return timeIt(lc.iters(n), f) / 1e6
}

// fromRun takes what the traced workload run itself measured: exact
// counts from public return values of one rep, the wait share from the
// instrumented reps, and the overhead of tracing.
func (lc *layerCtx) fromRun(l repLoop, steps int) {
	k := float64(steps)
	c := l.last.stats.Cost
	h := l.last.stats.Halo
	lc.set("model_ms_per_step", modelMsPerStep(l.last, steps))
	lc.set("sw.spawns_per_step", float64(c.Launches)/k)
	lc.set("sw.reg_msgs_per_step", float64(c.RegMsgs)/k)
	lc.set("sw.dma_ops_per_step", float64(c.DMAOps)/k)
	lc.cpuStep = low(l.bare.cpuMs)
	events := float64(64*c.Launches+c.DMAOps+c.RegMsgs) / k
	perEvent := 0.0
	if events > 0 {
		perEvent = lc.cpuStep * 1e6 / events
	}
	lc.set("sw.host_ns_per_event", perEvent)
	fpb := 0.0
	if c.MemBytes > 0 {
		fpb = float64(c.Flops()) / float64(c.MemBytes)
	}
	lc.set("exec.flops_per_byte", fpb)
	lc.set("exec.ldm_peak_kb", float64(c.LDMPeak)/1024)
	lc.set("halo.msgs_per_step", float64(h.Msgs)/k)
	lc.set("halo.wire_kb_per_step", float64(h.WireBytes)/1024/k)
	lc.set("halo.pack_kb_per_step", float64(h.PackBytes)/1024/k)
	lc.set("halo.staging_kb_per_step", float64(h.StagingBytes)/1024/k)
	lc.set("halo.wait_frac", l.waitFrac(lc.sh.ranks))
	lc.set("bench.trace_overhead_frac", low(l.traced.stepMs)/low(l.bare.stepMs)-1)
	lc.fr.Derived["bare_step_ms"] = low(l.bare.stepMs)
	lc.fr.Derived["traced_step_ms"] = low(l.traced.stepMs)
}

// replayTwoProcs repeats a few reps with two Ps, the parallelism the
// workloads were sized for. Wall time here shows what the second core
// buys and CPU over wall shows spinning or lock waiting; both swing with
// the neighbours on a shared VM, which is why nothing is gated on them.
func (lc *layerCtx) replayTwoProcs(m *modelRun, steps int) error {
	end := lc.tr.begin("replay.core.two_procs")
	defer end()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var ss stepSamples
	for i := 0; i < lc.iters(3); i++ {
		s := m.rep(steps, nil)
		if s.err != nil {
			return fmt.Errorf("two-proc rep: %w", s.err)
		}
		ss.add(s.d, steps)
	}
	lc.set("bench.step_ms_2procs", low(ss.stepMs))
	lc.set("bench.cpu_ms_per_step_2procs", low(ss.cpuMs))
	return nil
}

// replayModelLayers runs every model-side layer replay on m's shape and
// closes the step budget.
func (lc *layerCtx) replayModelLayers(m *modelRun) error {
	if err := lc.replayTwoProcs(m, lc.w.StepsPerRep); err != nil {
		return err
	}
	lc.replayMesh()
	lc.replaySW()
	lc.replayExec(m)
	lc.replayDycore(m)
	if err := lc.replayHalo(m); err != nil {
		return err
	}
	if err := lc.replayMpirt(); err != nil {
		return err
	}
	lc.replayIntegrity(m)
	if err := lc.replayCore(m); err != nil {
		return err
	}
	if err := lc.replayVariants(m); err != nil {
		return err
	}
	lc.replayObs()
	if err := lc.replayStore(m); err != nil {
		return err
	}
	lc.budget()
	lc.set("proc.peak_rss_mb", peakRSSMiB())
	return nil
}

func (lc *layerCtx) replayMesh() {
	cfg := lc.sh.cfg
	var m *mesh.Mesh
	lc.set("mesh.build_ms", lc.timed("mesh.new", 3, func() { m = mesh.New(cfg.Ne, cfg.Np) }))
	var rankOf []int
	lc.set("mesh.partition_ms", lc.timed("mesh.partition", 5, func() { rankOf, _ = m.Partition(lc.sh.ranks) }))
	lc.set("mesh.cut_edges", float64(m.CutEdges(rankOf)))
}

// replaySW times the simulator's primitives on one core group: an
// empty Spawn, the 8-row ColumnScan carry chain, DMA gets, and the
// row transpose. These do not depend on the workload's shape.
func (lc *layerCtx) replaySW() {
	cg := sw.NewCoreGroup(0)
	spawnMs := lc.timed("sw.spawn", 200, func() { cg.Spawn(func(*sw.CPE) {}) })
	lc.set("sw.spawn_us", spawnMs*1e3)

	const scans = 200
	cg.ResetCounters()
	scanMs := lc.timed("sw.column_scan", 20, func() {
		cg.Spawn(func(c *sw.CPE) {
			var local, out [1]float64
			for i := 0; i < scans; i++ {
				local[0] = float64(c.ID + i)
				sw.ColumnScan(c, local[:], out[:], 0)
			}
		})
	})
	sum, _ := cg.Counters()
	msgsPerSpawn := float64(sum.RegMsgs) / float64(lc.iters(20))
	lc.set("sw.regcomm_ns_per_msg", (scanMs-spawnMs)*1e6/msgsPerSpawn)

	const gets, small, large = 64, 128, 4096 // float64s: 1 KiB and 32 KiB
	main := make([]float64, large)
	getMs := func(span string, n int) float64 {
		return lc.timed(span, 20, func() {
			cg.Spawn(func(c *sw.CPE) {
				buf := c.LDM.MustAlloc("buf", n)
				for i := 0; i < gets; i++ {
					c.DMA.Get(buf, main[:n])
				}
			})
		})
	}
	ops := float64(gets * sw.CPEsPerCG)
	lc.set("sw.dma_ns_per_op", (getMs("sw.dma_small", small)-spawnMs)*1e6/ops)
	lc.set("sw.dma_mb_per_s", ops*large*8/1e6/((getMs("sw.dma_large", large)-spawnMs)/1e3))

	const dim = sw.MeshDim * sw.BlockDim
	mat := make([]float64, dim*dim)
	lc.set("sw.transpose_us", 1e3*(lc.timed("sw.row_transpose", 50, func() {
		cg.Spawn(func(c *sw.CPE) {
			if c.Row != 0 {
				return
			}
			blocks := make([][]float64, sw.MeshDim)
			for j := range blocks {
				blocks[j] = c.LDM.MustAlloc("blk", sw.BlockDim*sw.BlockDim)
			}
			sw.GatherBlocks(c, mat, dim, c.Col, blocks)
			sw.RowTranspose(c, blocks)
			sw.ScatterBlocks(c, mat, dim, c.Col, blocks)
		})
	})-spawnMs))
}

// replayExec calls each of the five step kernels on every rank's own
// engine, one rank after another, from the IC. A "call" is one logical
// kernel invocation across all ranks.
func (lc *layerCtx) replayExec(m *modelRun) {
	cfg, b := lc.sh.cfg, lc.sh.backend
	n := lc.sh.ranks
	engs := make([]*exec.Engine, n)
	st := m.job.Scatter(m.ic)
	s1 := m.job.Scatter(m.ic)
	lap := make([][4][][]float64, n)
	for r := 0; r < n; r++ {
		engs[r] = exec.NewEngine(m.job.Mesh, m.job.Plans[r].Elems, cfg.Nlev, cfg.Qsize)
		for f := range lap[r] {
			lap[r][f] = make([][]float64, st[r].NElem())
			for e := range lap[r][f] {
				lap[r][f][e] = make([]float64, cfg.Nlev*cfg.Np*cfg.Np)
			}
		}
	}
	dtv := cfg.Dt / float64(max(cfg.HypervisSubcycle, 1))
	kernels := map[string]func(r int) exec.Cost{
		"compute_and_apply_rhs": func(r int) exec.Cost { return engs[r].ComputeAndApplyRHS(b, st[r], st[r], s1[r], cfg.Dt) },
		"hypervis_dp1": func(r int) exec.Cost {
			return engs[r].HypervisDP1(b, st[r], lap[r][0], lap[r][1], lap[r][2], lap[r][3])
		},
		"hypervis_dp2": func(r int) exec.Cost {
			return engs[r].HypervisDP2(b, lap[r][0], lap[r][1], lap[r][2], lap[r][3], st[r], dtv, cfg.NuV, cfg.NuS)
		},
		"euler_step":     func(r int) exec.Cost { return engs[r].EulerStep(b, st[r], cfg.Dt) },
		"vertical_remap": func(r int) exec.Cost { return engs[r].VerticalRemap(b, m.job.Hybrid, st[r]) },
	}
	callsPerStep := map[string]float64{
		"compute_and_apply_rhs": 2,
		"hypervis_dp1":          float64(cfg.HypervisSubcycle),
		"hypervis_dp2":          float64(cfg.HypervisSubcycle),
		"euler_step":            2,
		"vertical_remap":        1 / float64(cfg.RemapFreq),
	}
	if cfg.Qsize == 0 {
		callsPerStep["euler_step"] = 0
	}

	iters := lc.iters(5)
	wall := map[string][]float64{}
	var cpuMs, allocs float64
	cost := map[string]exec.Cost{}
	end := lc.tr.begin("replay.exec")
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			st[r].CopyFrom(m.icLocal[r])
			s1[r].CopyFrom(m.icLocal[r])
		}
		for _, k := range execKernels {
			if callsPerStep[k] == 0 {
				continue
			}
			endK := lc.tr.begin("replay.exec." + k)
			var sum exec.Cost
			sum.Backend = b
			mt := startMeter()
			for r := 0; r < n; r++ {
				sum.Add(kernels[k](r))
			}
			d := mt.stop()
			endK()
			wall[k] = append(wall[k], float64(d.WallNs)/1e6)
			cpuMs += callsPerStep[k] * float64(d.CPUNs) / 1e6
			allocs += callsPerStep[k] * float64(d.Mallocs)
			cost[k] = sum
		}
	}
	end()

	var kernelsMs float64
	for _, k := range execKernels {
		ms := 0.0
		if len(wall[k]) > 0 {
			ms = low(wall[k])
		}
		c := cost[k]
		c.Backend = b // a kernel the step never calls has the zero Cost
		lc.set("exec."+k+".ms_per_call", ms)
		lc.set("exec."+k+".flops", float64(c.Flops()))
		lc.set("exec."+k+".mem_kb", float64(c.MemBytes)/1024)
		lc.set("exec."+k+".model_us", perf.KernelTime(c)*1e6)
		kernelsMs += callsPerStep[k] * ms
	}
	lc.set("exec.kernels_ms_per_step", kernelsMs)
	lc.set("exec.allocs_per_step", allocs/float64(iters))
	lc.cpuExec = cpuMs / float64(iters)
}

// replayDycore times the single-threaded serial Solver.Step, the
// baseline step_ms is an overhead over.
func (lc *layerCtx) replayDycore(m *modelRun) {
	ref := m.ic.Clone()
	m.solver.SetStep(0)
	steps := lc.replaySteps()
	end := lc.tr.begin("replay.dycore.step")
	defer end()
	var ms, allocs []float64
	for i := 0; i < steps; i++ {
		mt := startMeter()
		m.solver.Step(ref)
		d := mt.stop()
		ms = append(ms, float64(d.WallNs)/1e6)
		allocs = append(allocs, float64(d.Mallocs))
	}
	lc.set("dycore.serial_step_ms", low(ms))
	lc.set("dycore.serial_allocs_per_step", median(allocs))
}

// replayHalo builds fresh plans and runs one step's exchange sequence
// (two 4-field RHS exchanges, two per hyperviscosity subcycle, two
// tracer exchanges) in a bare world with nothing to overlap.
func (lc *layerCtx) replayHalo(m *modelRun) error {
	cfg, n := lc.sh.cfg, lc.sh.ranks
	plans := make([]*halo.Plan, n)
	lc.set("halo.plan_ms", lc.timed("halo.new_plans", 3, func() {
		for r := range plans {
			plans[r] = halo.NewPlan(m.job.Mesh, m.job.RankOf, r)
		}
	}))
	st := m.job.Scatter(m.ic)
	npsq := cfg.Np * cfg.Np
	dyn := halo.LevelMajor(cfg.Nlev, npsq)
	trc := halo.LevelMajor(cfg.Qsize*cfg.Nlev, npsq)
	inner := func() {}
	iters := lc.iters(20)
	end := lc.tr.begin("replay.halo.exchange")
	mt := startMeter()
	err := mpirt.NewWorld(n).Run(func(c *mpirt.Comm) {
		r := c.Rank()
		s := st[r]
		for it := 0; it < iters; it++ {
			for x := 0; x < 2+2*cfg.HypervisSubcycle; x++ {
				if _, err := plans[r].DSSOverlap(c, dyn, inner, s.U, s.V, s.T, s.DP); err != nil {
					mpirt.Fail(err)
				}
			}
			if cfg.Qsize > 0 {
				for x := 0; x < 2; x++ {
					if _, err := plans[r].DSSOverlap(c, trc, inner, s.Qdp); err != nil {
						mpirt.Fail(err)
					}
				}
			}
		}
	})
	d := mt.stop()
	end()
	if err != nil {
		return fmt.Errorf("halo replay: %w", err)
	}
	lc.set("halo.exchange_ms_per_step", float64(d.WallNs)/1e6/float64(iters))
	lc.cpuComm = float64(d.CPUNs) / 1e6 / float64(iters)
	return nil
}

// replayMpirt times the runtime's primitives: point-to-point on two
// ranks, collectives and an empty Run at the workload's rank count.
func (lc *layerCtx) replayMpirt() error {
	n := lc.sh.ranks
	perOp := func(span string, ranks, iters int, op func(c *mpirt.Comm, it int)) (float64, error) {
		iters = lc.iters(iters)
		end := lc.tr.begin("replay.mpirt." + span)
		defer end()
		t0 := time.Now()
		err := mpirt.NewWorld(ranks).Run(func(c *mpirt.Comm) {
			for it := 0; it < iters; it++ {
				op(c, it)
			}
		})
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(iters), err
	}
	pingPong := func(words int) func(c *mpirt.Comm, it int) {
		return func(c *mpirt.Comm, it int) {
			buf := make([]float64, words)
			if c.Rank() == 0 {
				c.Send(1, 7, buf)
				c.Recv(1, 7, buf)
			} else {
				c.Recv(0, 7, buf)
				c.Send(0, 7, buf)
			}
		}
	}
	us, err := perOp("p2p_word", 2, 2000, pingPong(1))
	if err != nil {
		return err
	}
	lc.set("mpirt.p2p_us", us/2)
	const big = 8192 // 64 KiB
	us, err = perOp("p2p_64k", 2, 200, pingPong(big))
	if err != nil {
		return err
	}
	lc.set("mpirt.p2p_mb_per_s", 2*big*8/us)

	us, err = perOp("allreduce", n, 200, func(c *mpirt.Comm, it int) { c.AllreduceScalar(mpirt.OpSum, float64(it)) })
	if err != nil {
		return err
	}
	lc.set("mpirt.allreduce_us", us)
	us, err = perOp("bcast", n, 200, func(c *mpirt.Comm, it int) { c.Bcast(0, []float64{float64(it)}) })
	if err != nil {
		return err
	}
	lc.set("mpirt.bcast_us", us)
	us, err = perOp("barrier", n, 200, func(c *mpirt.Comm, it int) { c.Barrier() })
	if err != nil {
		return err
	}
	lc.set("mpirt.barrier_us", us)
	lc.set("mpirt.world_run_us", 1e3*lc.timed("mpirt.world_run", 50, func() {
		_ = mpirt.NewWorld(n).Run(func(*mpirt.Comm) {})
	}))
	return nil
}

// replayIntegrity seals and verifies every rank's state.
func (lc *layerCtx) replayIntegrity(m *modelRun) {
	seals := make([]*integrity.RankSeal, len(m.icLocal))
	var bytes float64
	for _, st := range m.icLocal {
		for _, f := range st.Fields() {
			for _, e := range f.Data {
				bytes += float64(8 * len(e))
			}
		}
	}
	sealMs := lc.timed("integrity.seal", 10, func() {
		for r, st := range m.icLocal {
			seals[r] = integrity.SealState(st, 1)
		}
	})
	lc.set("integrity.seal_ms", sealMs)
	lc.set("integrity.verify_ms", lc.timed("integrity.verify", 10, func() {
		for r, st := range m.icLocal {
			if err := seals[r].Verify(st); err != nil {
				panic(err) // the harness just sealed these bits
			}
		}
	}))
	lc.set("integrity.crc_mb_per_s", bytes/1e6/(sealMs/1e3))
}

// replayCore times job construction, scatter/gather and the checkpoint
// codec on the workload's state.
func (lc *layerCtx) replayCore(m *modelRun) error {
	var err error
	lc.set("core.job_build_ms", lc.timed("core.new_job", 3, func() {
		if _, e := core.NewParallelJob(lc.sh.cfg, lc.sh.backend, true, lc.sh.ranks); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	var local []*dycore.State
	lc.set("core.scatter_ms", lc.timed("core.scatter", 5, func() { local = m.job.Scatter(m.ic) }))
	var g *dycore.State
	lc.set("core.gather_ms", lc.timed("core.gather", 5, func() { g = m.job.Gather(local) }))

	var enc []byte
	lc.set("core.ckpt_encode_ms", lc.timed("core.ckpt_encode", 5, func() {
		if enc, err = core.EncodeStateBytes(g, 1); err != nil {
			panic(err) // encoding into memory cannot fail
		}
	}))
	lc.set("core.ckpt_decode_ms", lc.timed("core.ckpt_decode", 5, func() {
		if _, _, err = core.DecodeStateBytes(enc); err != nil {
			panic(err) // the harness just encoded these bytes
		}
	}))
	snaps := make([][]float64, len(local))
	for r, st := range local {
		if snaps[r], err = core.EncodeRankSnapshot(st, 1); err != nil {
			return err
		}
	}
	lc.set("core.ckpt_verify_ms", lc.timed("core.ckpt_verify", 5, func() {
		for _, s := range snaps {
			if err = core.VerifyRankSnapshot(s); err != nil {
				panic(err) // the harness just encoded these payloads
			}
		}
	}))
	return nil
}

// variant is one configuration of the workload's shape run for a few
// steps: per-step wall and CPU medians plus the last rep.
type variant struct {
	wallMs, cpuMs float64
	last          repSample
	run           *modelRun
	steps         int // steps the job has run in all, warm-up included
}

func (lc *layerCtx) runVariant(name string, sh shape, probe *obs.Probe) (variant, error) {
	end := lc.tr.begin("replay.core.variant." + name)
	defer end()
	var v variant
	m, err := buildModel(sh, lc.o.seed, nil)
	if err != nil {
		return v, err
	}
	if probe != nil {
		m.job.Instrument(probe)
	}
	steps, reps := lc.replaySteps(), lc.iters(3)
	var ss stepSamples
	for i := 0; i < reps; i++ {
		v.last = m.rep(steps, nil)
		if v.last.err != nil {
			return v, fmt.Errorf("variant %s: %w", name, v.last.err)
		}
		ss.add(v.last.d, steps)
	}
	v.wallMs, v.cpuMs, v.run = low(ss.stepMs), low(ss.cpuMs), m
	v.steps = warmupSteps + reps*steps
	return v, nil
}

// replayVariants runs the shape bare, with physics, under the
// supervisor, and with an obs probe attached; the differences are what
// physics, supervision and instrumentation cost per step here.
func (lc *layerCtx) replayVariants(m *modelRun) error {
	bareSh := lc.sh
	bareSh.physics, bareSh.supervised = false, false
	bare, err := lc.runVariant("bare", bareSh, nil)
	if err != nil {
		return err
	}

	physSh := bareSh
	physSh.physics = true
	phys, err := lc.runVariant("physics", physSh, nil)
	if err != nil {
		return err
	}
	lc.set("physics.ms_per_step", phys.wallMs-bare.wallMs)
	ps := phys.run.job.PhysStats()
	lc.set("physics.chunks_per_step", float64(ps.Chunks)/float64(phys.steps))
	frac := 0.0
	if ps.StealAttempts > 0 {
		frac = float64(ps.Steals) / float64(ps.StealAttempts)
	}
	lc.set("physics.steal_success_frac", frac)
	var busyMax, busySum float64
	for _, ns := range ps.WorkerBusyNs {
		busySum += float64(ns)
		if float64(ns) > busyMax {
			busyMax = float64(ns)
		}
	}
	imb := 0.0
	if busySum > 0 {
		imb = busyMax / (busySum / float64(len(ps.WorkerBusyNs)))
	}
	lc.set("physics.worker_imbalance", imb)
	lc.set("physics.column_us", lc.columnUs(phys.run))
	if lc.sh.physics {
		lc.cpuPhysics = phys.cpuMs - bare.cpuMs
	}

	supSh := bareSh
	supSh.supervised = true
	sup, err := lc.runVariant("supervised", supSh, nil)
	if err != nil {
		return err
	}
	k := float64(lc.replaySteps())
	lc.set("core.supervision_ms_per_step", sup.wallMs-bare.wallMs)
	lc.set("core.checkpoints_per_step", float64(sup.last.sup.Checkpoints)/k)
	lc.set("core.buddy_kb_per_step", float64(sup.last.sup.BuddyBytes)/1024/k)
	if lc.sh.supervised {
		lc.cpuSupervisor = sup.cpuMs - bare.cpuMs
	}

	probed, err := lc.runVariant("probed", bareSh, obs.NewProbe())
	if err != nil {
		return err
	}
	lc.set("obs.probe_overhead_frac", probed.wallMs/bare.wallMs-1)
	return nil
}

// columnUs times physics.Suite.Step on one column filled from the IC
// the way the model's column driver fills it.
func (lc *layerCtx) columnUs(m *modelRun) float64 {
	cfg := lc.sh.cfg
	npsq := cfg.Np * cfg.Np
	st, e := m.ic, m.solver.Mesh.Elements[0]
	suite := physics.NewMoistSuite()
	col := physics.NewColumn(cfg.Nlev)
	fill := func(n int) {
		p := dycore.PTop
		for k := 0; k < cfg.Nlev; k++ {
			i := k*npsq + n
			col.DP[k] = st.DP[0][i]
			col.P[k] = p + col.DP[k]/2
			p += col.DP[k]
			col.T[k], col.U[k], col.V[k] = st.T[0][i], st.U[0][i], st.V[0][i]
			col.Qv[k], col.Qc[k], col.Qr[k] = 0, 0, 0
			if cfg.Qsize > 0 {
				col.Qv[k] = st.QdpAt(0, 0)[i] / col.DP[k]
			}
		}
		col.Ps, col.Lat, col.Ts, col.Precip = p, e.Lat[n], physSST, 0
	}
	n := 0
	return 1e3 * lc.timed("physics.column", 2000, func() {
		fill(n % npsq)
		suite.Step(col, cfg.Dt)
		n++
	})
}

func (lc *layerCtx) replayObs() {
	reg := obs.NewRegistry()
	const n = 1000
	lc.set("obs.counter_add_ns", 1e6/n*lc.timed("obs.counter_add", 100, func() {
		for i := 0; i < n; i++ {
			reg.Counter("bench.counter").Add(1)
		}
	}))
	tr := obs.NewTracer()
	lc.set("obs.span_ns", 1e6/n*lc.timed("obs.span", 100, func() {
		for i := 0; i < n; i++ {
			tr.Begin(0, "bench.span", "bench").End()
		}
	}))
}

// replayStore times the snapshot store on the workload's global state:
// publish (encode), a cold read (copy, CRC, decode), a warm read (cache
// hit), the readiness verify, and one lat-lon sampler build.
func (lc *layerCtx) replayStore(m *modelRun) error {
	store := serve.NewStore(1, nil)
	var publish, cold, warm, verify []float64
	end := lc.tr.begin("replay.serve.store")
	for i := 0; i < lc.iters(5); i++ {
		lap := func(dst *[]float64, f func() error) error {
			t0 := time.Now()
			err := f()
			*dst = append(*dst, float64(time.Since(t0).Nanoseconds())/1e6)
			return err
		}
		read := func() error { _, _, err := store.Read(0); return err }
		for _, step := range []struct {
			dst *[]float64
			f   func() error
		}{
			{&publish, func() error { return store.Publish(0, i+1, 0, m.ic) }},
			{&cold, read}, {&warm, read},
			{&verify, func() error { return store.VerifyLatest(0) }},
		} {
			if err := lap(step.dst, step.f); err != nil {
				end()
				return fmt.Errorf("store replay: %w", err)
			}
		}
	}
	end()
	lc.set("serve.publish_ms", low(publish))
	lc.set("serve.read_cold_ms", low(cold))
	lc.set("serve.read_warm_ms", low(warm))
	lc.set("serve.verify_ms", low(verify))
	lc.set("serve.sampler_build_ms", lc.timed("serve.sampler_build", 1, func() { core.NewSampler(m.solver.Mesh, 72, 36) }))
	return nil
}

// fromServe takes the serve metrics that only traffic can give.
func (lc *layerCtx) fromServe(t *serveTotals) {
	lc.set("serve.cycle_ms", low(t.cycleMs))
	for i, r := range serveRoutes {
		lc.set("serve.route."+r+".p50_ms", median(t.byRoute[i]))
	}
	lc.set("serve.latency_p90_ms", quantile(t.openLat, 0.9))
	lc.set("serve.latency_p99_ms", quantile(t.openLat, 0.99))
	lc.set("serve.gen_late_p99_ms", quantile(t.late, 0.99))
	lc.set("serve.shed_frac", float64(t.shed)/float64(len(t.requests)))
	lc.set("serve.kb_per_req", float64(t.bytes)/1024/float64(len(t.requests)))
}

// budget closes the step budget: each replayed layer's CPU per step as
// a share of the workload's own CPU per step, and what is left over.
// The five fractions sum to 1 by construction; unattributed is the
// orchestration the replays do not cover (canonical reductions, SSP
// combines, the limiter, goroutine scheduling) and can go negative if
// the replays cost more than the real step.
func (lc *layerCtx) budget() {
	ex, co := lc.cpuExec/lc.cpuStep, lc.cpuComm/lc.cpuStep
	ph, su := lc.cpuPhysics/lc.cpuStep, lc.cpuSupervisor/lc.cpuStep
	lc.set("budget.exec_frac", ex)
	lc.set("budget.comm_frac", co)
	lc.set("budget.physics_frac", ph)
	lc.set("budget.supervisor_frac", su)
	lc.set("budget.unattributed_frac", 1-ex-co-ph-su)
}
