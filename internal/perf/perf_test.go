package perf

import (
	"math"
	"testing"

	"swcam/internal/exec"
)

// KernelTimeNoVec models the same cost with the vector unit disabled
// (all flops at the scalar rate) — the ablation for the §7.3 manual
// vectorization step. Only meaningful for CPE backends.
func KernelTimeNoVec(c exec.Cost) float64 {
	c.FlopsScalar += c.FlopsVector
	c.FlopsVector = 0
	return KernelTime(c)
}

func TestKernelTimePositiveAndOrdered(t *testing.T) {
	// A compute-heavy cost: MPE must be slower than Intel; a vectorized
	// CPE run must beat both.
	mk := func(b exec.Backend, scalar, vector, maxCPE, bytes int64) exec.Cost {
		return exec.Cost{Backend: b, FlopsScalar: scalar, FlopsVector: vector,
			MaxCPEFlops: maxCPE, MemBytes: bytes, Launches: 1}
	}
	flops := int64(1e9)
	intel := KernelTime(mk(exec.Intel, flops, 0, flops, 1e8))
	mpe := MPETime(mk(exec.Intel, flops, 0, flops, 1e8))
	ath := KernelTime(mk(exec.Athread, 0, flops, flops/64, 1e8))
	if intel <= 0 || mpe <= 0 || ath <= 0 {
		t.Fatal("non-positive kernel time")
	}
	if mpe <= intel {
		t.Errorf("MPE (%g) not slower than Intel (%g)", mpe, intel)
	}
	if ratio := mpe / intel; ratio < 2 || ratio > 10 {
		t.Errorf("MPE/Intel ratio %.1f outside the paper's 2-10x band", ratio)
	}
	if ath >= intel {
		t.Errorf("vectorized CPE cluster (%g) not faster than one Intel core (%g)", ath, intel)
	}
}

func TestKernelTimeMemoryBound(t *testing.T) {
	// A byte-heavy cost must be bandwidth-limited, not flop-limited.
	c := exec.Cost{Backend: exec.Athread, FlopsVector: 1e6, MaxCPEFlops: 1e6 / 64,
		MemBytes: 1e9, Launches: 1}
	got := KernelTime(c)
	wantAtLeast := 1e9 / CGMemBW
	if got < wantAtLeast {
		t.Errorf("time %g below bandwidth bound %g", got, wantAtLeast)
	}
}

func TestACCLaunchOverheadVisible(t *testing.T) {
	// Tiny kernels: the OpenACC region overhead must dominate.
	c := exec.Cost{Backend: exec.OpenACC, FlopsScalar: 1000, MaxCPEFlops: 100, Launches: 1}
	if got := KernelTime(c); got < ACCRegionOverhead {
		t.Errorf("ACC kernel time %g below region overhead", got)
	}
}

// Figure 6's orderings; the anchors and ratio bands are ledger rows
// fig6.*.
func TestFig6CAMShape(t *testing.T) {
	c := DefaultCAMConfig(30)
	prev := 0.0
	for _, np := range Fig6Ne30Procs {
		ori := c.SYPD(VersionOri, np)
		acc := c.SYPD(VersionOpenACC, np)
		ath := c.SYPD(VersionAthread, np)
		if !(ori < acc && acc < ath) {
			t.Errorf("np=%d: ordering violated: ori %.2f acc %.2f ath %.2f", np, ori, acc, ath)
		}
		// SYPD must rise monotonically with process count over Fig 6's range.
		if ath <= prev {
			t.Errorf("SYPD not increasing at np=%d", np)
		}
		prev = ath
	}
}

// Figure 7 shape: both problem sizes lose efficiency under strong
// scaling; the larger problem (ne1024) retains much more. The endpoint
// values are ledger rows fig7.*.
func TestFig7StrongScalingShape(t *testing.T) {
	h256 := DefaultHOMMEConfig(256)
	h1024 := DefaultHOMMEConfig(1024)

	prevPF := 0.0
	for _, np := range []int{4096, 8192, 16384, 32768, 65536, 131072} {
		pf := h256.PFlops(np, true)
		if pf <= prevPF {
			t.Errorf("ne256 PFlops not increasing at np=%d", np)
		}
		prevPF = pf
	}
	eff256 := h256.Efficiency(131072, 4096, true)
	eff1024 := h1024.Efficiency(131072, 8192, true)
	if eff256 >= eff1024 {
		t.Errorf("ne256 efficiency (%.3f) should be far below ne1024 (%.3f)", eff256, eff1024)
	}
}

// Figure 8 shape: larger per-process loads scale better. The
// efficiencies and the full-machine point are ledger rows fig8.*.
func TestFig8WeakScalingShape(t *testing.T) {
	if e48, e768 := WeakEfficiency(48, 131072, 512, 128, 4),
		WeakEfficiency(768, 131072, 512, 128, 4); e48 >= e768 {
		t.Errorf("bigger per-process load should scale better: 48->%.3f, 768->%.3f", e48, e768)
	}
}

func TestMachineConstantsSanity(t *testing.T) {
	if cores := TotalCGs * CoresPerCG; cores != 10649600 {
		t.Errorf("TaihuLight core count %d, spec 10,649,600", cores)
	}
	if CPEVectorRate <= CPERate {
		t.Error("vector rate must exceed scalar rate")
	}
	if MPERate >= IntelRate {
		t.Error("the paper's premise: MPE slower than a Xeon core")
	}
	if 64*CPEVectorRate <= IntelRate {
		t.Error("a full CPE cluster must beat one Xeon core")
	}
}

func TestCAMVersionString(t *testing.T) {
	if VersionOri.String() != "ori" || VersionOpenACC.String() != "openacc" ||
		VersionAthread.String() != "athread" {
		t.Error("version names must match Figure 6's legend")
	}
	if CAMVersion(9).String() != "?" {
		t.Error("unknown version")
	}
}

func TestHOMMEConfigBasics(t *testing.T) {
	h := DefaultHOMMEConfig(256)
	if h.FlopsPerElemStep() <= 0 || h.BytesPerElemStep() <= 0 {
		t.Error("non-positive per-element costs")
	}
	// Overlap must never be slower than no overlap.
	for _, np := range []int{4096, 131072} {
		tOv, _ := h.StepTime(np, true)
		tNo, _ := h.StepTime(np, false)
		if tOv > tNo {
			t.Errorf("np=%d: overlap slower (%g > %g)", np, tOv, tNo)
		}
	}
}

// Table 1 / Figure 5 shape: every kernel runs on every backend, and
// Athread clearly beats OpenACC on each. The per-kernel ratios are ledger
// rows table1.* and fig5.*.
func TestTable1Fig5Shape(t *testing.T) {
	rows := table1Rows()
	if len(rows) != 6 {
		t.Fatalf("Table 1 has %d rows", len(rows))
	}
	for _, r := range rows {
		for b, tm := range r.Times {
			if tm <= 0 {
				t.Fatalf("%s/%v: non-positive time", r.Name, b)
			}
		}
		if r.Speedup(exec.OpenACC, exec.Athread) < 2 {
			t.Errorf("%s: Athread should clearly beat OpenACC", r.Name)
		}
	}
}

// Table 3 shape: our SE core beats FV3 beats MPAS at both NGGPS
// workloads, and the margin widens at 3 km. The run times and ratios are
// ledger rows table3.*.
func TestTable3Shape(t *testing.T) {
	cases := Table3()
	if len(cases) != 2 {
		t.Fatalf("Table 3 has %d cases", len(cases))
	}
	ratios := make([][]float64, 2)
	for i, c := range cases {
		if len(c.Rows) != 3 || c.Rows[0].Name != "our work" {
			t.Fatalf("case %d malformed", i)
		}
		base := c.Rows[0].RunTime
		for _, r := range c.Rows {
			if r.RunTime <= 0 {
				t.Fatalf("%s/%s: non-positive runtime", c.Label, r.Name)
			}
			ratios[i] = append(ratios[i], r.RunTime/base)
		}
		if !(ratios[i][1] > 1 && ratios[i][2] > ratios[i][1]) {
			t.Errorf("%s: ordering violated: %v", c.Label, ratios[i])
		}
	}
	if ratios[1][1] <= ratios[0][1] || ratios[1][2] <= ratios[0][2] {
		t.Errorf("margins should widen at 3 km: 12.5km %v vs 3km %v", ratios[0], ratios[1])
	}
}

// Vectorization ablation: disabling the vector unit must slow the
// Athread kernels whenever they are compute-bound, and never speed them
// up. (Memory-bound kernels shift less — also informative.)
func TestVectorizationAblation(t *testing.T) {
	// Compute-bound cost: the scalar fallback must pay the full vector
	// speedup.
	c := exec.Cost{Backend: exec.Athread, FlopsVector: 1e9, MaxCPEFlops: 1e9 / 64, Launches: 1}
	tv := KernelTime(c)
	ts := KernelTimeNoVec(c)
	if ts <= tv {
		t.Errorf("scalar fallback (%g) not slower than vectorized (%g)", ts, tv)
	}
	if ratio := ts / tv; ratio < 2 || ratio > 6 {
		t.Errorf("vector speedup %0.1fx outside the 256-bit unit's plausible band", ratio)
	}
	// Memory-bound cost: disabling the vector unit barely matters — the
	// paper's insight that bandwidth, not arithmetic, limits these
	// kernels once the data movement is wrong.
	mb := exec.Cost{Backend: exec.Athread, FlopsVector: 1e6, MaxCPEFlops: 1e6 / 64,
		MemBytes: 1e9, Launches: 1}
	if KernelTimeNoVec(mb)/KernelTime(mb) > 1.05 {
		t.Error("memory-bound kernel should be insensitive to vectorization")
	}
}

// The Table 1 generator scales an 8-element sample to the 64-element
// per-process load assuming kernel costs are linear in elements. Verify
// the assumption: doubling the sample must leave the scaled times
// within a few percent.
func TestTable1SampleLinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the functional simulator twice")
	}
	small := DefaultTable1Config()
	small.SampleElems = 8
	big := DefaultTable1Config()
	big.SampleElems = 16
	rs := Table1(small)
	rb := Table1(big)
	for i := range rs {
		for _, b := range exec.Backends {
			a, c := rs[i].Times[b], rb[i].Times[b]
			if rel := math.Abs(a-c) / c; rel > 0.05 {
				t.Errorf("%s/%v: sample-size dependence %.1f%% (8 elems: %g, 16 elems: %g)",
					rs[i].Name, b, 100*rel, a, c)
			}
		}
	}
}

// Power model: the Linpack anchor is ledger row power.linpack; the
// modelled full-machine dycore run lands at a few tenths of a GFlops/W —
// the typical 20-30x gap between Linpack and memory-bound real
// applications.
func TestPowerEfficiency(t *testing.T) {
	app := PowerEfficiency(WeakScaling(650, 155000, 128, 4).PFlops, 155000)
	if app < 0.1 || app > 0.6 {
		t.Errorf("dycore run = %.2f GFlops/W, expected a few tenths", app)
	}
	if PowerEfficiency(1, 1024) <= PowerEfficiency(1, 2048) {
		t.Error("same flops on more hardware must be less efficient")
	}
}
