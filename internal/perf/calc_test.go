package perf

import (
	"math"
	"testing"

	"swcam/internal/exec"
)

func close(t *testing.T, name string, got, want, rtol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > rtol {
		t.Errorf("%s = %g, want %g (rtol %g)", name, got, want, rtol)
	}
}

// TestKernelTimeSerialHandComputed pins the serial roofline, on the Xeon
// (KernelTime) and on the MPE (MPETime), against values computed by hand
// from the published machine constants: time = max(flops/rate, bytes/bw).
func TestKernelTimeSerialHandComputed(t *testing.T) {
	// Compute-bound on Intel: 3.0e9 flops at 3.0 GFlops/s = 1 s exactly.
	c := exec.Cost{Backend: exec.Intel, FlopsScalar: 3_000_000_000}
	close(t, "intel compute-bound", KernelTime(c), 1.0, 1e-12)

	// Memory-bound on Intel: 28e9 bytes at 14 GB/s = 2 s; the 3e9 flops
	// would take only 1 s, so memory dominates.
	c.MemBytes = 28_000_000_000
	close(t, "intel memory-bound", KernelTime(c), 2.0, 1e-12)

	// MPE: 1.1e9 flops at 0.55 GFlops/s = 2 s; 6e9 bytes at 6 GB/s = 1 s.
	m := exec.Cost{Backend: exec.Intel, FlopsScalar: 1_100_000_000, MemBytes: 6_000_000_000}
	close(t, "mpe compute-bound", MPETime(m), 2.0, 1e-12)
}

// TestMPETimeRejectsCPECost: only a serial run has an MPE price.
func TestMPETimeRejectsCPECost(t *testing.T) {
	for _, b := range []exec.Backend{exec.OpenACC, exec.Athread} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MPETime(%v cost) did not panic", b)
				}
			}()
			MPETime(exec.Cost{Backend: b, FlopsScalar: 1})
		}()
	}
}

// TestKernelTimeCPEHandComputed pins the CPE-cluster model (Athread):
// launches*overhead + max(busiest-CPE compute, DMA memory) + reg chain.
func TestKernelTimeCPEHandComputed(t *testing.T) {
	// All-vector kernel: the busiest CPE holds 5.8e9 flops at the 5.8
	// GFlops/s vector rate = 1 s of compute. Memory: 64 DMA ops spread
	// over 64 engines pay one 150 ns issue; no bytes. Register chain: 64
	// messages / 64 CPEs at 7 ns = 7 ns. One spawn at 2 us.
	c := exec.Cost{
		Backend:     exec.Athread,
		FlopsVector: 64 * 5_800_000_000,
		MaxCPEFlops: 5_800_000_000,
		DMAOps:      64,
		RegMsgs:     64,
		Launches:    1,
	}
	want := SpawnOverhead + 1.0 + RegCommLatency
	close(t, "athread all-vector", KernelTime(c), want, 1e-12)

	// Memory-bound: 29e9 bytes at CGMemBW*AthMemEff = 29e9*0.55 B/s
	// takes 1/0.55 s, dominating the 0.5 s of compute.
	m := exec.Cost{
		Backend:     exec.Athread,
		FlopsVector: 64 * 2_900_000_000,
		MaxCPEFlops: 2_900_000_000,
		MemBytes:    29_000_000_000,
		Launches:    1,
	}
	want = SpawnOverhead + 1.0/AthMemEff
	close(t, "athread memory-bound", KernelTime(m), want, 1e-12)

	// KernelTimeNoVec moves the same flops to the 1.45 GFlops/s scalar
	// rate: compute becomes 5.8/1.45 = 4x slower.
	v := exec.Cost{
		Backend:     exec.Athread,
		FlopsVector: 64 * 5_800_000_000,
		MaxCPEFlops: 5_800_000_000,
		Launches:    1,
	}
	want = SpawnOverhead + CPEVectorRate/CPERate
	close(t, "athread novec", KernelTimeNoVec(v), want, 1e-12)
}

// TestCAMSYPDHandComputed pins the whole-CAM SYPD conversion: with
// (86400/DtPhys) physics steps per simulated day, a simulated day costs
// stepsPerDay*PhysStepTime of wall, and SYPD = 86400/(365*simDayWall).
func TestCAMSYPDHandComputed(t *testing.T) {
	for _, ne := range []int{30, 120} {
		c := DefaultCAMConfig(ne)
		for _, v := range []CAMVersion{VersionOri, VersionOpenACC, VersionAthread} {
			for _, np := range []int{600, 5400, 28800} {
				stepWall := c.PhysStepTime(v, np)
				want := 86400 / (365 * (86400 / c.DtPhys) * stepWall)
				close(t, "SYPD", c.SYPD(v, np), want, 1e-12)
			}
		}
	}
	// The calibration anchor the model was fit to (§7.1): ne30 athread
	// at 5400 processes lands at 21.5 SYPD.
	close(t, "ne30 anchor", DefaultCAMConfig(30).SYPD(VersionAthread, 5400), 21.5, 0.05)
}

// TestPFlopsHandComputed pins the PFlops conversions: sustained rate is
// the step's total flops over its modeled wall time.
func TestPFlopsHandComputed(t *testing.T) {
	h := DefaultHOMMEConfig(256)
	for _, np := range []int{4096, 131072} {
		secs, flops := h.StepTime(np, true)
		// Total flops must be elements x per-element flops, independent
		// of the process count.
		close(t, "step flops", flops, float64(h.NElems())*h.FlopsPerElemStep(), 1e-12)
		close(t, "PFlops", h.PFlops(np, true), flops/secs/1e15, 1e-12)
	}

	// Weak scaling: per-process flops times nprocs over the step time.
	cfg := HOMMEConfig{Ne: 1, Np: 4, Nlev: 128, Qsize: 4, RemapFreq: 2, Dt: 1}
	w := WeakScaling(650, 155000, 128, 4)
	wantFlops := 650 * cfg.FlopsPerElemStep() * 155000
	close(t, "weak PFlops", w.PFlops, wantFlops/w.StepTime/1e15, 1e-12)

	// Efficiency at the baseline is exactly 1 by definition.
	close(t, "strong eff base", h.Efficiency(4096, 4096, true), 1.0, 1e-12)
	close(t, "weak eff base", WeakEfficiency(650, 512, 512, 128, 4), 1.0, 1e-12)
}
