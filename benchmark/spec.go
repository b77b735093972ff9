package main

import (
	"swcam/internal/dycore"
	"swcam/internal/exec"
)

// metricDef declares one metric the harness emits. Bound is the
// regression bound of an end-to-end metric as a share of the parent's
// median; per-layer metrics are reported, not gated, and leave it 0.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the gated set, taken from the untraced pass only. The
// driver wants every gated metric from every workload, so the request
// view and the step view exist on all six: on a model workload a request
// is one Run call of StepsPerRep steps (closed loop, one client); on
// serve-mix a step is one member model step of the synchronous publish
// cycle. README.md has the table, and says why latency_p90_ms and
// model_ms_per_step are per-layer here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms", "ms", "lower", 0.15},
	{"cpu_ms_per_step", "ms", "lower", 0.15},
	{"allocs_per_step", "count", "lower", 0.01},
	{"alloc_kb_per_step", "KiB", "lower", 0.02},
	{"req_per_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
}

// execKernels are the five kernels a model step launches, in step order.
var execKernels = []string{
	"compute_and_apply_rhs", "hypervis_dp1", "hypervis_dp2", "euler_step", "vertical_remap",
}

var serveRoutes = []string{"field", "point", "ensemble", "track", "members"}

// perLayer is the traced-pass set: names are <module>.<metric>. Units
// "model-ms" and "model-us" are the modelled SW26010/Xeon clock
// (internal/perf), which is deterministic; every other time is host
// wall or CPU time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	m := []metricDef{
		lo("model_ms_per_step", "model-ms"),

		lo("mesh.build_ms", "ms"), lo("mesh.partition_ms", "ms"), lo("mesh.cut_edges", "count"),

		lo("sw.spawn_us", "us"), lo("sw.regcomm_ns_per_msg", "ns"), lo("sw.dma_ns_per_op", "ns"),
		hi("sw.dma_mb_per_s", "MB/s"), lo("sw.transpose_us", "us"),
		lo("sw.spawns_per_step", "count"), lo("sw.reg_msgs_per_step", "count"),
		lo("sw.dma_ops_per_step", "count"), lo("sw.host_ns_per_event", "ns"),
	}
	for _, k := range execKernels {
		m = append(m,
			lo("exec."+k+".ms_per_call", "ms"), lo("exec."+k+".flops", "count"),
			lo("exec."+k+".mem_kb", "KiB"), lo("exec."+k+".model_us", "model-us"))
	}
	m = append(m,
		lo("exec.kernels_ms_per_step", "ms"), hi("exec.flops_per_byte", "flop/B"),
		lo("exec.ldm_peak_kb", "KiB"), lo("exec.allocs_per_step", "count"),

		lo("dycore.serial_step_ms", "ms"), lo("dycore.serial_allocs_per_step", "count"),

		lo("halo.plan_ms", "ms"), lo("halo.exchange_ms_per_step", "ms"),
		lo("halo.msgs_per_step", "count"), lo("halo.wire_kb_per_step", "KiB"),
		lo("halo.pack_kb_per_step", "KiB"), lo("halo.staging_kb_per_step", "KiB"),
		lo("halo.wait_frac", "frac"),

		lo("mpirt.p2p_us", "us"), hi("mpirt.p2p_mb_per_s", "MB/s"), lo("mpirt.allreduce_us", "us"),
		lo("mpirt.bcast_us", "us"), lo("mpirt.barrier_us", "us"), lo("mpirt.world_run_us", "us"),

		lo("physics.column_us", "us"), lo("physics.ms_per_step", "ms"),
		lo("physics.chunks_per_step", "count"), hi("physics.steal_success_frac", "frac"),
		lo("physics.worker_imbalance", "ratio"),

		lo("integrity.seal_ms", "ms"), lo("integrity.verify_ms", "ms"), hi("integrity.crc_mb_per_s", "MB/s"),

		lo("core.job_build_ms", "ms"), lo("core.scatter_ms", "ms"), lo("core.gather_ms", "ms"),
		lo("core.ckpt_encode_ms", "ms"), lo("core.ckpt_verify_ms", "ms"), lo("core.ckpt_decode_ms", "ms"),
		lo("core.checkpoints_per_step", "count"), lo("core.buddy_kb_per_step", "KiB"),
		lo("core.supervision_ms_per_step", "ms"),
		hi("budget.exec_frac", "frac"), lo("budget.comm_frac", "frac"), lo("budget.physics_frac", "frac"),
		lo("budget.supervisor_frac", "frac"), lo("budget.unattributed_frac", "frac"),

		lo("serve.cycle_ms", "ms"), lo("serve.publish_ms", "ms"), lo("serve.read_cold_ms", "ms"),
		lo("serve.read_warm_ms", "ms"), lo("serve.verify_ms", "ms"), lo("serve.sampler_build_ms", "ms"),
	)
	for _, r := range serveRoutes {
		m = append(m, lo("serve.route."+r+".p50_ms", "ms"))
	}
	m = append(m,
		lo("serve.latency_p90_ms", "ms"), lo("serve.latency_p99_ms", "ms"), lo("serve.gen_late_p99_ms", "ms"),
		lo("serve.shed_frac", "frac"), lo("serve.kb_per_req", "KiB"),

		lo("obs.counter_add_ns", "ns"), lo("obs.span_ns", "ns"), lo("obs.probe_overhead_frac", "frac"),

		lo("bench.trace_overhead_frac", "frac"), lo("bench.step_ms_2procs", "ms"),
		lo("bench.cpu_ms_per_step_2procs", "ms"), lo("proc.peak_rss_mb", "MiB"),
	)
	return m
}

// workload is one frozen, fault-free, seeded configuration.
type workload struct {
	Name string
	Why  string

	Ne, Nlev, Qsize int
	Ranks           int
	Backend         exec.Backend
	Physics         bool // moist suite every step on 2 steal workers, swprof's moisture load
	Supervised      bool // ResilientJob ladder, checkpoint every 2, 3 generations, integrity scrub 1
	StepsPerRep     int

	// serve-mix only.
	Serve      bool
	Members    int
	CycleSteps int
	OpenRate   int // open-loop requests per second
	OpenN      int // open-loop requests per segment
	ClosedN    int // closed-loop requests per client per segment
}

// workloads are frozen: names, shapes and steps per rep never change
// with -seconds (only the number of reps or segments does).
var workloads = []workload{
	{
		Name: "dyn-athread",
		Why:  "Athread backend on the sw simulator: CPU sits in CoreGroup.Spawn closures and register-fabric channels, so simulator host-cost work must show here",
		Ne:   4, Nlev: 8, Qsize: 1, Ranks: 4, Backend: exec.Athread, StepsPerRep: 40,
	},
	{
		Name: "dyn-intel",
		Why:  "same config on Intel bypasses sw entirely (serial exec kernels + halo + mpirt): a simulator change predicts no change, a kernel-layer change shows here",
		Ne:   4, Nlev: 8, Qsize: 1, Ranks: 4, Backend: exec.Intel, StepsPerRep: 40,
	},
	{
		Name: "comm-64r",
		Why:  "ne8 over 64 ranks (6 elements each): halo.DSSOverlap, mpirt send/recv/CRC and the gather-to-rank-0 reductions dominate; per-rank kernels do little",
		Ne:   8, Nlev: 4, Qsize: 1, Ranks: 64, Backend: exec.Intel, StepsPerRep: 20,
	},
	{
		Name: "moist-phys",
		Why:  "moist physics every step on the 2-worker steal pool with 3 tracers: physics.Suite.Step, the steal pool and canonicalPrecip do the most work; sw does nothing",
		Ne:   4, Nlev: 16, Qsize: 3, Ranks: 2, Backend: exec.Intel, Physics: true, StepsPerRep: 20,
	},
	{
		Name: "supervised",
		Why:  "dyn-intel under the fault-free ladder supervisor with integrity on: seal, snapshot encode, buddy ship and ledger gathers run beside stepping",
		Ne:   4, Nlev: 8, Qsize: 1, Ranks: 4, Backend: exec.Intel, Supervised: true, StepsPerRep: 40,
	},
	{
		Name: "serve-mix",
		Why:  "3-member forecast server on loopback under the harness's own open+closed loop generator: admission, store read/verify/decode, sampling and JSON beside publishes",
		Ne:   4, Nlev: 8, Qsize: 1, Ranks: 2, Backend: exec.Intel, Supervised: true,
		StepsPerRep: 2, Serve: true, Members: 3, CycleSteps: 2, OpenRate: 500, OpenN: 500, ClosedN: 400,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to the smoke size the unit tests run:
// ne2/L4, few steps, 200 open-loop requests. Names and metric sets are
// unchanged; numbers from a quick run are not comparable to anything.
func (w workload) quick() workload {
	w.Ne, w.Nlev = 2, 4
	if w.Ranks > 6 {
		w.Ranks = 6
	}
	if w.Physics {
		w.Nlev = 8
	}
	if w.StepsPerRep > 4 {
		w.StepsPerRep = 4
	}
	if w.Serve {
		w.OpenRate, w.OpenN, w.ClosedN = 2000, 200, 50
	}
	return w
}

// miniServe is the one-member forecast service a model workload's
// traced pass runs on its own shape to fill the serve layer's metrics.
func (w workload) miniServe() workload {
	w.Serve, w.Members, w.CycleSteps = true, 1, 2
	w.OpenRate, w.OpenN, w.ClosedN = 500, 200, 50
	return w
}

// shape is what a layer replay needs to know about a workload.
type shape struct {
	cfg        dycore.Config
	ranks      int
	backend    exec.Backend
	physics    bool
	supervised bool
}

func (w workload) shape() shape {
	cfg := dycore.DefaultConfig(w.Ne)
	cfg.Nlev, cfg.Qsize = w.Nlev, w.Qsize
	return shape{cfg: cfg, ranks: w.Ranks, backend: w.Backend, physics: w.Physics, supervised: w.Supervised}
}
