package core

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// kernelGolden is one (backend, kernel) row of counted work: launches,
// architectural flops and main-memory bytes, summed over every rank.
type kernelGolden struct{ calls, flops, bytes int64 }

// bench9Goldens are the per-backend kernel Cost columns recorded in
// bench/BENCH_9.json for the flip-chaos configuration run by
// TestBench9ConfigGoldens. They change only when a primitive's cost
// attribution changes on purpose — a reviewed event, not drift. The
// boundary half of a split launch counts no work of its own.
var bench9Goldens = map[string]map[string]kernelGolden{
	"intel": {
		"compute_and_apply_rhs.boundary": {60, 0, 0},
		"compute_and_apply_rhs.inner":    {60, 5468160, 3010560},
		"euler_step.boundary":            {60, 0, 0},
		"euler_step.inner":               {60, 2949120, 1966080},
		"hypervis_dp1.boundary":          {30, 0, 0},
		"hypervis_dp1.inner":             {30, 3225600, 983040},
		"hypervis_dp2.boundary":          {30, 0, 0},
		"hypervis_dp2.inner":             {30, 3348480, 983040},
		"vertical_remap":                 {9, 1105920, 516096},
	},
	"openacc": {
		"compute_and_apply_rhs.boundary": {60, 0, 0},
		"compute_and_apply_rhs.inner":    {60, 7418880, 7991040},
		"euler_step.boundary":            {60, 0, 0},
		"euler_step.inner":               {60, 2949120, 3873600},
		"hypervis_dp1.boundary":          {30, 0, 0},
		"hypervis_dp1.inner":             {30, 3225600, 2090880},
		"hypervis_dp2.boundary":          {30, 0, 0},
		"hypervis_dp2.inner":             {30, 3348480, 2582400},
		"vertical_remap":                 {9, 1156608, 4386816},
	},
	"athread": {
		"compute_and_apply_rhs.boundary": {60, 0, 0},
		"compute_and_apply_rhs.inner":    {60, 6028800, 8363520},
		"euler_step.boundary":            {60, 0, 0},
		"euler_step.inner":               {60, 2949120, 3202560},
		"hypervis_dp1.boundary":          {30, 0, 0},
		"hypervis_dp1.inner":             {30, 3333120, 3198720},
		"hypervis_dp2.boundary":          {30, 0, 0},
		"hypervis_dp2.inner":             {30, 3456000, 3690240},
		"vertical_remap":                 {9, 1156608, 516096},
	},
}

// The three-backend golden: a flip-chaos soak (ne2, 4 levels, 3 tracers,
// 3 ranks, 6 steps, overlapped exchange, scrubbing every step, a ladder
// supervisor keeping three checkpoint generations) run on every
// backend. On each one the per-kernel calls/flops/bytes must equal the
// recorded table exactly, every injected flip must be detected, and the
// recovered state must hash equal to a fault-free replica's.
func TestBench9ConfigGoldens(t *testing.T) {
	const ranks, steps = 3, 6
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 4
	cfg.Qsize = 3
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	global := s.NewState()
	s.InitBaroclinicWave(global)

	newJob := func(b exec.Backend) *ParallelJob {
		job, err := NewParallelJob(cfg, b, true, ranks)
		if err != nil {
			t.Fatal(err)
		}
		job.SetDynWorkers(1)
		job.EnableIntegrity(1)
		return job
	}

	for _, b := range exec.Backends {
		name := strings.ToLower(b.String())
		t.Run(name, func(t *testing.T) {
			job := newJob(b)
			probe := &obs.Probe{Reg: obs.NewRegistry(), Kernels: obs.NewKernelTable()}
			job.Instrument(probe)
			// A rank performs on the order of 40 communication ops per
			// step; the chaos events are spread over that span.
			plan, err := mpirt.ParseFaultPlan("chaosflip:6@42", ranks, steps*40)
			if err != nil {
				t.Fatal(err)
			}
			job.Faults = plan
			job.RecvTimeout = 2 * time.Second
			job.CheckEvery = 1
			rj := NewResilientJob(job)
			rj.Mode = ModeLadder
			rj.CheckpointEvery = 1
			rj.MaxRetries = 10
			rj.Generations = 3
			rs, err := rj.Run(job.Scatter(global), steps)
			if err != nil {
				t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
			}

			got := map[string]kernelGolden{}
			for _, st := range probe.Kernels.Stats() {
				k := got[st.Kernel]
				k.calls += st.Calls
				k.flops += st.Flops
				k.bytes += st.Bytes
				got[st.Kernel] = k
			}
			want := bench9Goldens[name]
			for _, kn := range slices.Sorted(maps.Keys(want)) {
				if g, w := got[kn], want[kn]; g == (kernelGolden{}) {
					t.Errorf("%s: kernel not recorded", kn)
				} else if g != w {
					t.Errorf("%s: calls/flops/bytes = %d/%d/%d, want %d/%d/%d",
						kn, g.calls, g.flops, g.bytes, w.calls, w.flops, w.bytes)
				}
			}
			for kn := range got {
				if _, ok := want[kn]; !ok {
					t.Errorf("%s: kernel recorded but not in the golden table", kn)
				}
			}

			reg := probe.Reg
			injected := reg.CounterValue("integrity.flips.state") +
				reg.CounterValue("integrity.flips.checkpoint") +
				reg.CounterValue("integrity.flips.buddy")
			detected := reg.CounterValue("integrity.scrub.detections") +
				reg.CounterValue("integrity.ledger.detections") +
				reg.CounterValue("integrity.gen.poisoned") +
				reg.CounterValue("integrity.preship.rejects")
			if injected == 0 || detected < injected {
				t.Errorf("%d/%d injected flips detected: %v", detected, injected, rs.Events)
			}

			ref := newJob(b)
			rlocal := ref.Scatter(global)
			if _, err := ref.RunChecked(rlocal, steps); err != nil {
				t.Fatalf("fault-free replica: %v", err)
			}
			if g, w := StateFNV(job.Gather(rj.States())), StateFNV(ref.Gather(rlocal)); g != w {
				t.Errorf("recovered state fnv %016x, fault-free replica %016x", g, w)
			}
		})
	}
}
