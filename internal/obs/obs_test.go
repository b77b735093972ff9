package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent records from many ranks into one shared
// registry at once, under -race.
func TestRegistryConcurrent(t *testing.T) {
	total := NewRegistry()
	const ranks, per = 8, 100
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				total.Counter("exec.launches").Add(1)
				total.Gauge("exec.ldm.peak").Set(float64(r*per + i))
				total.Histogram("mpirt.rank.send.bytes").Observe(float64(i))
			}
		}(r)
	}
	wg.Wait()
	if got := total.CounterValue("exec.launches"); got != ranks*per {
		t.Errorf("exec.launches = %d, want %d", got, ranks*per)
	}
	var samples int64
	for _, m := range total.snapshot() {
		if m.Name == "mpirt.rank.send.bytes" {
			samples = m.Count
		}
	}
	if samples != ranks*per {
		t.Errorf("histogram count = %d, want %d", samples, ranks*per)
	}
	if got := total.Gauge("exec.ldm.peak").Max(); got != ranks*per-1 {
		t.Errorf("gauge max = %g, want %d", got, ranks*per-1)
	}
}

// TestNilRegistry checks that nil registries and nil metrics absorb
// every operation without panicking.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if r.CounterValue("x") != 0 {
		t.Fatal("nil registry returned nonzero")
	}
	var p *Probe
	if p.T() != nil || p.R() != nil || p.K() != nil {
		t.Fatal("nil probe returned non-nil components")
	}
	var kt *KernelTable
	kt.Record("k", "b", 1, 1, 1, 0, 0)
	if kt.Stats() != nil {
		t.Fatal("nil kernel table returned stats")
	}
}

func TestRegistryDumps(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.gauge").Set(2.5)
	r.Histogram("c.hist").Observe(4)
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	want := "a.gauge                          2.5 (max 2.5)\n" +
		"b.count                          3\n" +
		"c.hist                           n=1 mean=4 min=4 max=4\n"
	if txt.String() != want {
		t.Errorf("WriteText:\n%q\nwant:\n%q", txt.String(), want)
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var metrics []map[string]any
	if err := json.Unmarshal(js.Bytes(), &metrics); err != nil {
		t.Fatalf("WriteJSON invalid: %v", err)
	}
	if len(metrics) != 3 || metrics[0]["name"] != "a.gauge" {
		t.Errorf("WriteJSON = %v", metrics)
	}
}

func TestSYPDGuards(t *testing.T) {
	// One simulated year in one wall day is exactly 1 SYPD.
	if got := SYPD(365*86400, 86400); math.Abs(got-1) > 1e-12 {
		t.Errorf("SYPD(1 year, 1 day) = %g, want 1", got)
	}
	// 1500 sim s in 0.01 wall s: (1500/31536000)/(0.01/86400).
	want := (1500.0 / (365 * 86400)) / (0.01 / 86400)
	if got := SYPD(1500, 0.01); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("SYPD(1500, 0.01) = %g, want %g", got, want)
	}
	for _, wall := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := SYPD(1500, wall); got != 0 {
			t.Errorf("SYPD(1500, %g) = %g, want 0", wall, got)
		}
	}
}

func TestStepReport(t *testing.T) {
	kt := NewKernelTable()
	kt.Record("compute_and_apply_rhs", "Athread", 300, 1e15, 500, 2, 3)
	kt.Record("euler_step", "Athread", 100, 1e15, 100, 1, 1)

	reg := NewRegistry()
	reg.Counter("halo.ns").Add(100)
	reg.Counter("halo.wait.ns").Add(25)

	// Without any overlap window the ratio is unmeasured: no pipeline ran,
	// so there is nothing to quantify (the text report prints "n/a").
	rep := BuildStepReport(kt, reg, ReportInput{
		Steps: 10, SimSeconds: 365 * 86400, WallSeconds: 2,
	})
	if rep.OverlapMeasured || rep.OverlapRatio != 0 {
		t.Errorf("unmeasured overlap: measured=%v ratio=%g, want false/0",
			rep.OverlapMeasured, rep.OverlapRatio)
	}
	if !strings.Contains(rep.Text(), "comm overlap n/a") {
		t.Errorf("text without overlap windows should say n/a:\n%s", rep.Text())
	}

	// With recorded overlap windows the ratio is 1 - wait/total.
	reg.Counter("halo.overlap.windows").Add(3)
	rep = BuildStepReport(kt, reg, ReportInput{
		Steps: 10, SimSeconds: 365 * 86400, WallSeconds: 2,
	})
	if !rep.OverlapMeasured {
		t.Error("OverlapMeasured = false with halo.overlap.windows > 0")
	}
	if math.Abs(rep.OverlapRatio-0.75) > 1e-12 {
		t.Errorf("OverlapRatio = %g, want 0.75", rep.OverlapRatio)
	}
	if !strings.Contains(rep.Text(), "comm overlap 75%") {
		t.Errorf("text with overlap should print the ratio:\n%s", rep.Text())
	}
	// 2e15 counted flops over 2 wall seconds = 1e15 flops/s = 1 PFlops.
	if math.Abs(rep.PFlops-1) > 1e-12 {
		t.Errorf("PFlops = %g, want 1", rep.PFlops)
	}
	// One simulated year in 2 s of wall: 86400/2 SYPD.
	if want := 86400.0 / 2; math.Abs(rep.SYPD-want)/want > 1e-12 {
		t.Errorf("SYPD = %g, want %g", rep.SYPD, want)
	}
	if len(rep.Kernels) != 2 {
		t.Fatalf("got %d kernels", len(rep.Kernels))
	}
	// Sorted by descending time; shares 0.75 and 0.25.
	if rep.Kernels[0].Kernel != "compute_and_apply_rhs" {
		t.Errorf("kernel order: %q first", rep.Kernels[0].Kernel)
	}
	if math.Abs(rep.Kernels[0].TimeShare-0.75) > 1e-12 ||
		math.Abs(rep.Kernels[1].TimeShare-0.25) > 1e-12 {
		t.Errorf("shares = %g, %g; want 0.75, 0.25",
			rep.Kernels[0].TimeShare, rep.Kernels[1].TimeShare)
	}
}

func TestStepReportRecoverySummary(t *testing.T) {
	kt := NewKernelTable()
	kt.Record("euler_step", "Athread", 100, 10, 20, 1, 1)

	// No recovery counters: the report stays recovery-free.
	rep := BuildStepReport(kt, NewRegistry(), ReportInput{Steps: 1, SimSeconds: 1, WallSeconds: 1})
	if rep.Recovery != nil {
		t.Fatalf("fault-free report has recovery summary: %+v", rep.Recovery)
	}
	if strings.Contains(rep.Text(), "recovery:") {
		t.Error("fault-free report text mentions recovery")
	}

	reg := NewRegistry()
	reg.Counter("mpirt.retx.attempts").Add(5)
	reg.Counter("mpirt.retx.recovered").Add(4)
	reg.Counter("core.recovery.checkpoints").Add(9)
	reg.Counter("core.recovery.localized").Add(2)
	reg.Counter("core.recovery.shrinks").Add(1)
	reg.Counter("core.recovery.rollbacks").Add(3)
	reg.Counter("core.recovery.replayed_steps").Add(6)
	reg.Counter("core.recovery.ns").Add(7e6)

	rep = BuildStepReport(kt, reg, ReportInput{Steps: 1, SimSeconds: 1, WallSeconds: 1})
	rec := rep.Recovery
	if rec == nil {
		t.Fatal("report with recovery counters has no summary")
	}
	want := RecoverySummary{
		Retransmits: 5, Retransmitted: 4, Checkpoints: 9, Localized: 2,
		Shrinks: 1, Rollbacks: 3, ReplayedSteps: 6, RecoveryWallNs: 7e6,
	}
	if *rec != want {
		t.Errorf("summary = %+v, want %+v", *rec, want)
	}
	if txt := rep.Text(); !strings.Contains(txt, "recovery: 4/5 retransmits recovered") {
		t.Errorf("report text missing recovery line:\n%s", txt)
	}
}
