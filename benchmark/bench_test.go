package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"swcam/internal/core"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.1, 1.8}, {0.9, 8.2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	s := summarize(xs)
	if s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if low(xs) != quantile(xs, 0.1) || high(xs) != quantile(xs, 0.9) {
		t.Error("low/high are the 10th and 90th percentiles")
	}
	// Python: statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestScheduleIsPureFunctionOfSeedRateN(t *testing.T) {
	a := schedule(7, 500, 60, 3, 8)
	b := schedule(7, 500, 60, 3, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, rate, n) gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 500, 60, 3, 8)) {
		t.Fatal("another seed gave the same schedule")
	}
	routes := map[int]int{}
	for i, r := range a {
		if want := int64(i) * 2e6; r.due.Nanoseconds() != want {
			t.Fatalf("request %d due at %v, want %dns", i, r.due, want)
		}
		routes[r.route]++
	}
	// Six shapes rotate; the two field grids share a route label.
	if routes[0] != 20 || routes[1] != 10 || routes[2] != 10 || routes[3] != 10 || routes[4] != 10 {
		t.Fatalf("route mix %v", routes)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "rep[0]", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 2, Name: "core.run", StartNs: 20, EndNs: 45},
		{ID: 4, Parent: 1, Name: "replay.halo.exchange", StartNs: 60, EndNs: 90},
		{ID: 5, Parent: 1, Name: "replay.halo.plans", StartNs: 80, EndNs: 120}, // overlaps 4, runs past the parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 30 - 10, 2: 40 - 25, 3: 25, 4: 30, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	for name, layer := range map[string]string{
		"replay.halo.exchange": "halo", "setup.job": "setup", "core.run": "core",
		"rep[3]": "rep", "warmup": "warmup", "replay.exec.euler_step": "exec",
	} {
		if got := layerOf(name); got != layer {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, layer)
		}
	}

	tr := newTracer("w")
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endC := tr.begin("c")
	endC()
	endA()
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	var none *tracer
	none.begin("x")() // a nil tracer records nothing and does not panic
}

func TestBudgetFractionsSumToOne(t *testing.T) {
	w := workloads[0]
	fr := newFullResult(w, options{})
	lc := newLayerCtx(w, w.shape(), options{}, nil, fr)
	lc.cpuStep, lc.cpuExec, lc.cpuComm, lc.cpuPhysics, lc.cpuSupervisor = 50, 31.5, 7.25, 3, 12.125
	lc.budget()
	sum := 0.0
	for _, n := range []string{"budget.exec_frac", "budget.comm_frac", "budget.physics_frac", "budget.supervisor_frac", "budget.unattributed_frac"} {
		sum += fr.Metrics[n].Value
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("budget fractions sum to %v", sum)
	}
	if got := fr.Metrics["budget.unattributed_frac"].Value; got >= 0 {
		t.Fatalf("replays costing more than the step must show as a negative remainder, got %v", got)
	}
}

// quickRun is a real, tiny model run the gate tests share.
func quickRun(t *testing.T) (*modelRun, repLoop, int) {
	t.Helper()
	w, _ := findWorkload("dyn-intel")
	w = w.quick()
	m, err := buildModel(w.shape(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := peerHash(w.shape(), m, w.StepsPerRep)
	if err != nil {
		t.Fatal(err)
	}
	l := measureReps(m, w.StepsPerRep, nil, 0, 2, peer)
	ref, err := m.reference(w.StepsPerRep)
	if err != nil {
		t.Fatal(err)
	}
	l.obsv.ref, l.obsv.mass0 = ref, m.solver.TotalMass(m.ic)
	l.obsv.got = m.job.Gather(m.local)
	l.obsv.mass = m.solver.TotalMass(l.obsv.got)
	return m, l, w.StepsPerRep
}

func TestGate(t *testing.T) {
	_, l, _ := quickRun(t)
	if v := gate(l.obsv); v.Failed != 0 || v.Attempted != 2 {
		t.Fatalf("clean run: %+v", v)
	}

	// One flipped mantissa bit in the gathered state of the last rep is
	// one failed operation: its hash no longer matches.
	o := l.obsv
	o.got = l.obsv.got.Clone()
	o.got.T[3][5] = math.Float64frombits(math.Float64bits(o.got.T[3][5]) ^ 1)
	o.repHashes = append([]uint64(nil), l.obsv.repHashes...)
	o.repHashes[len(o.repHashes)-1] = core.StateFNV(o.got)
	if v := gate(o); v.Failed != 1 || v.Attempted != 2 {
		t.Fatalf("bit flip: %+v", v)
	}

	// The same hash everywhere but a state off the serial reference.
	o = l.obsv
	o.got = l.obsv.got.Clone()
	o.got.U[0][0] += 1e-6 * (1 + math.Abs(o.got.U[0][0]))
	if v := gate(o); v.Failed != 1 {
		t.Fatalf("reference drift: %+v", v)
	}
	o.got.U[0][0] = math.NaN()
	if v := gate(o); v.Failed != 1 {
		t.Fatalf("NaN: %+v", v)
	}
	o = l.obsv
	o.mass = o.mass0 * (1 + 1e-9)
	if v := gate(o); v.Failed != 1 {
		t.Fatalf("mass drift: %+v", v)
	}

	// Requests: anything but a well-formed 200 is a failed operation.
	o = observations{requests: []reqOutcome{{status: 200}, {status: 429}, {status: 0}, {status: 200, malformed: true}, {status: 503}}}
	if v := gate(o); v.Attempted != 5 || v.Failed != 4 {
		t.Fatalf("requests: %+v", v)
	}
}

// TestQuickSmoke runs both passes of all six workloads at -quick size
// and checks that every declared metric is emitted exactly once, with
// its declared unit, and nothing undeclared is.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	hashes := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.05, traced: traced, quick: true, traceDir: dir}
			fr, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !fr.Correct || fr.Failed != 0 || fr.Attempted < 1 {
				t.Errorf("%s traced=%v: %d/%d failed: %v", w.Name, traced, fr.Failed, fr.Attempted, fr.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line, err := json.Marshal(fr.result)
			if err != nil {
				t.Fatal(err)
			}
			// Decode the contract line the way the driver does; a name that
			// appeared twice would not survive the map, so count raw keys.
			var raw struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &raw); err != nil {
				t.Fatal(err)
			}
			if len(raw.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(raw.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := raw.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				for _, f := range []string{".trace.json", ".layers.json"} {
					b, err := os.ReadFile(dir + "/" + w.Name + f)
					if err != nil || !json.Valid(b) {
						t.Errorf("%s: %s not written as JSON: %v", w.Name, f, err)
					}
				}
				sum := 0.0
				for _, n := range []string{"exec", "comm", "physics", "supervisor", "unattributed"} {
					sum += fr.Metrics["budget."+n+"_frac"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: budget sums to %v", w.Name, sum)
				}
			} else {
				hashes[w.Name] = fr.Hash
			}
		}
	}
	for _, n := range identityGroup[1:] {
		if hashes[n] != hashes[identityGroup[0]] {
			t.Errorf("%s hash %s != %s hash %s", n, hashes[n], identityGroup[0], hashes[identityGroup[0]])
		}
	}
}

func TestDeclaredNamesAreUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 || d.Unit == "" {
			t.Errorf("metric %s / unit %q outside the BENCHMARK.json limits", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesHarness keeps the root BENCHMARK.json and the
// harness's own declarations from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s", i, f.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs")
	}
}
