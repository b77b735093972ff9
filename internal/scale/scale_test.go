package scale

import (
	"errors"
	"math"
	"testing"

	"swcam/internal/exec"
)

// TestCampaignMeasuredPoint runs one real tiny sweep point end to end
// and checks the measurement is complete: every phase bucket saw time,
// and the workload counters are populated.
func TestCampaignMeasuredPoint(t *testing.T) {
	c := &Campaign{Cfg: Config{
		Backend: exec.Intel, Nlev: 4, Qsize: 1, Steps: 2, Overlap: true,
		BudgetBytes: 256 << 20,
	}}
	pt, err := c.RunPoint(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ne != 2 || pt.Ranks != 4 || pt.Steps != 2 {
		t.Errorf("point identity wrong: %+v", pt)
	}
	if pt.ElemsPerRank != 6 { // 24 elements over 4 ranks
		t.Errorf("elems per rank = %d, want 6", pt.ElemsPerRank)
	}
	if pt.WallNs < 1 || pt.PerStepNs < 1 {
		t.Errorf("no wall time measured: %+v", pt)
	}
	if pt.DynNs < 1 {
		t.Error("dynamics phase saw no kernel time")
	}
	if pt.HaloNs < 1 {
		t.Error("halo phase saw no exchange time")
	}
	if pt.CollNs < 1 {
		t.Error("collective phase saw no time (watchdog allreduce should have run)")
	}
	if pt.WireBytes < 1 || pt.Msgs < 1 {
		t.Errorf("no wire traffic recorded: %+v", pt)
	}
	if pt.Flops < 1 || pt.MemBytes < 1 {
		t.Errorf("no kernel cost accounted: %+v", pt)
	}
	if pt.RankBytes < 1 || pt.RankBytes > c.Cfg.BudgetBytes {
		t.Errorf("rank footprint %d outside (0, budget]", pt.RankBytes)
	}
	if pt.SYPD <= 0 || math.IsNaN(pt.SYPD) {
		t.Errorf("SYPD %v", pt.SYPD)
	}
}

// TestCampaignBudgetRefusal: a configuration whose busiest rank would
// exceed the budget is refused before running, with a typed error the
// sweeps turn into skips.
func TestCampaignBudgetRefusal(t *testing.T) {
	c := &Campaign{Cfg: Config{
		Backend: exec.Intel, Nlev: 8, Qsize: 2, Steps: 1,
		BudgetBytes: 1024, // nothing fits in a kilobyte
	}}
	_, err := c.RunPoint(2, 2)
	var be *ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("want *ErrBudget, got %v", err)
	}
	if be.NeedBytes <= be.BudgetBytes {
		t.Errorf("budget error inconsistent: %+v", be)
	}
	// The strong sweep skips refused rank counts instead of failing.
	skipped := 0
	if _, err := c.StrongSweep(2, []int{1, 2}, func(int, error) { skipped++ }); err == nil {
		t.Error("sweep with every point refused should error")
	}
	if skipped != 2 {
		t.Errorf("skip callback fired %d times, want 2", skipped)
	}
}

// TestCampaignStrongSweep measures a real three-point strong curve and
// checks it is usable: per-rank load falls as ranks grow.
func TestCampaignStrongSweep(t *testing.T) {
	c := &Campaign{Cfg: Config{Backend: exec.Intel, Nlev: 4, Qsize: 1, Steps: 1, Overlap: true}}
	pts, err := c.StrongSweep(2, []int{2, 4, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("measured %d points, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ElemsPerRank > pts[i-1].ElemsPerRank {
			t.Errorf("per-rank load grew along the strong curve: %+v", pts)
		}
	}
}

// TestCampaignWeakSweep holds the per-rank load near the target while
// ranks scale.
func TestCampaignWeakSweep(t *testing.T) {
	c := &Campaign{Cfg: Config{
		Backend: exec.Intel, Nlev: 4, Qsize: 1, Steps: 1, Overlap: true,
		WeakElemsPerRank: 6,
	}}
	pts, err := c.WeakSweep([]int{4, 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("measured %d points, want >= 2", len(pts))
	}
	for _, p := range pts {
		if p.ElemsPerRank < 3 || p.ElemsPerRank > 12 {
			t.Errorf("weak point drifted from ~6 elems/rank: %+v", p)
		}
	}
}

// TestFitRecoversSyntheticCoefficients: generated points following an
// exact linear cost model must fit back to the generating coefficients.
// This is the calibration layer's correctness anchor — if the normal
// equations, pivoting, or predictor assembly were wrong, exact synthetic
// data would not round-trip.
func TestFitRecoversSyntheticCoefficients(t *testing.T) {
	want := Coeffs{
		NsPerFlop:     0.37,
		NsPerMsg:      1450,
		NsPerWireByte: 0.052,
		FixedNs:       2.4e5,
	}
	var pts []Point
	for i, w := range []struct {
		flops, msgs, wire float64
	}{
		{1e7, 100, 5e5},
		{2e7, 220, 9e5},
		{4e7, 150, 1.4e6},
		{8e7, 600, 3e6},
		{1.6e8, 380, 2e6},
		{3e7, 900, 4e6},
		{5e7, 50, 2e5},
	} {
		const steps = 2
		y := want.NsPerFlop*w.flops +
			want.NsPerMsg*w.msgs + want.NsPerWireByte*w.wire + want.FixedNs
		pts = append(pts, Point{
			Ne: 2 + i, Ranks: 4, ElemsPerRank: 6, Steps: steps,
			Flops: int64(w.flops * steps), MemBytes: int64(w.flops * steps * 3),
			Msgs: int64(w.msgs * steps), WireBytes: int64(w.wire * steps),
			PerStepNs: int64(y), WallNs: int64(y * steps), SYPD: 1,
		})
	}
	got, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, g, w float64) {
		if math.Abs(g-w) > 1e-3*math.Abs(w) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	check("ns_per_flop", got.NsPerFlop, want.NsPerFlop)
	check("ns_per_msg", got.NsPerMsg, want.NsPerMsg)
	check("ns_per_wire_byte", got.NsPerWireByte, want.NsPerWireByte)
	check("fixed_ns", got.FixedNs, want.FixedNs)
	if got.NsPerByte != 0 {
		t.Errorf("ns_per_byte = %v, want 0 (folded into ns_per_flop)", got.NsPerByte)
	}
	if got.Points != len(pts) {
		t.Errorf("fit.Points = %d, want %d", got.Points, len(pts))
	}
	if got.ResidualRMS > 1e-6 {
		t.Errorf("exact synthetic data left residual %v", got.ResidualRMS)
	}
}

// TestFitAcceptsProportionalMemBytes is the real-campaign shape: at
// fixed nlev/qsize the accounted kernel bytes are exactly proportional
// to flops across every sweep point. A model with both as predictors
// would be singular; the fit must handle this family, because it is
// what every single-configuration campaign produces.
func TestFitAcceptsProportionalMemBytes(t *testing.T) {
	var pts []Point
	wires := []float64{6e5, 4e5, 2.5e6, 1e6, 7e6, 9e5}
	for i, f := range []float64{1e7, 2e7, 4e7, 8e7, 1.6e8, 3e7} {
		msgs := float64(200 + 700*i%1100)
		wire := wires[i]
		y := 0.5*f + 1000*msgs + 0.04*wire + 1e5
		pts = append(pts, Point{
			Ne: 2 + i, Ranks: 4, ElemsPerRank: 6, Steps: 1,
			Flops: int64(f), MemBytes: int64(2.75 * f), // exactly collinear
			Msgs: int64(msgs), WireBytes: int64(wire),
			PerStepNs: int64(y), WallNs: int64(y), SYPD: 1,
		})
	}
	got, err := Fit(pts)
	if err != nil {
		t.Fatalf("fit rejected the realistic collinear family: %v", err)
	}
	if got.ResidualRMS > 1e-6 {
		t.Errorf("exact collinear data left residual %v", got.ResidualRMS)
	}
}

// TestFitClampsNegativeCoefficients: when the best unconstrained fit
// would assign a negative rate (here the generating model *subtracts*
// per-message cost), the NNLS clamp must zero that coefficient instead
// — negative rates predict negative step times once extrapolated.
func TestFitClampsNegativeCoefficients(t *testing.T) {
	wires := []float64{6e5, 4e5, 2.5e6, 1e6, 7e6, 9e5}
	var pts []Point
	for i, f := range []float64{1e7, 2e7, 4e7, 8e7, 1.6e8, 3e7} {
		msgs := float64(200 + 700*i%1100)
		y := 0.5*f + 0.04*wires[i] + 1e5 - 800*msgs // negative msg "cost"
		pts = append(pts, Point{
			Ne: 2 + i, Ranks: 4, ElemsPerRank: 6, Steps: 1,
			Flops: int64(f), MemBytes: int64(3 * f),
			Msgs: int64(msgs), WireBytes: int64(wires[i]),
			PerStepNs: int64(y), WallNs: int64(y), SYPD: 1,
		})
	}
	got, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"ns_per_flop": got.NsPerFlop, "ns_per_byte": got.NsPerByte,
		"ns_per_msg": got.NsPerMsg, "ns_per_wire_byte": got.NsPerWireByte,
		"fixed_ns": got.FixedNs,
	} {
		if v < 0 {
			t.Errorf("%s = %v, want >= 0", name, v)
		}
	}
	if got.NsPerMsg != 0 {
		t.Errorf("ns_per_msg = %v, want clamped to 0", got.NsPerMsg)
	}
}

// TestFitRejectsDegenerate: too few points, and collinear predictors,
// must error rather than emit garbage coefficients.
func TestFitRejectsDegenerate(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
	// Seven identical points: the normal equations are rank-1.
	p := Point{
		Ne: 2, Ranks: 4, ElemsPerRank: 6, Steps: 1,
		Flops: 1e7, MemBytes: 3e7, Msgs: 100, WireBytes: 5e5,
		PerStepNs: 1e7, WallNs: 1e7, SYPD: 1,
	}
	pts := make([]Point, 7)
	for i := range pts {
		pts[i] = p
	}
	if _, err := Fit(pts); err == nil {
		t.Error("collinear fit accepted")
	}
}

// TestExtrapolateTable: the projection rows are well-formed, rank
// counts cap at the machine size, resolution sharpens with ne, and both
// SYPD columns are finite and positive.
func TestExtrapolateTable(t *testing.T) {
	fit := Coeffs{
		NsPerFlop: 0.4, NsPerByte: 0.1, NsPerMsg: 1200,
		NsPerWireByte: 0.05, FixedNs: 3e5, Points: 6, ResidualRMS: 0.05,
	}
	measured := []Point{
		{Ne: 4, Ranks: 16, ElemsPerRank: 6, Steps: 2,
			Flops: 2e9, MemBytes: 6e9, Msgs: 2000, WireBytes: 4e7,
			PerStepNs: 5e8, WallNs: 1e9, SYPD: 0.5},
		{Ne: 8, Ranks: 64, ElemsPerRank: 6, Steps: 2,
			Flops: 8e9, MemBytes: 24e9, Msgs: 9000, WireBytes: 1.8e8,
			PerStepNs: 2e9, WallNs: 4e9, SYPD: 0.12},
	}
	nes := []int{30, 120, 1024, 3072, 4000}
	rows, err := Extrapolate(fit, measured, nes, 163840, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(nes) {
		t.Fatalf("%d rows for %d resolutions", len(rows), len(nes))
	}
	for i, r := range rows {
		if r.Ne != nes[i] {
			t.Errorf("row %d ne = %d, want %d", i, r.Ne, nes[i])
		}
		if r.Ranks > 163840 || r.Ranks < 1 {
			t.Errorf("row %d ranks = %d outside machine", i, r.Ranks)
		}
		if r.Ranks > 6*r.Ne*r.Ne {
			t.Errorf("row %d has more ranks than elements", i)
		}
		if i > 0 && r.ResKm >= rows[i-1].ResKm {
			t.Errorf("resolution did not sharpen: %v then %v km", rows[i-1].ResKm, r.ResKm)
		}
		if i > 0 && r.SYPD > rows[i-1].SYPD {
			t.Errorf("calibrated SYPD rose with resolution: %+v", rows)
		}
		for _, v := range []float64{r.SYPD, r.ModelSYPD} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("row %d SYPD %v not positive-finite: %+v", i, v, r)
			}
		}
	}
}
