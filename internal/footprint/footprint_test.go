package footprint

import (
	"strings"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mesh"
	"swcam/internal/sw"
)

func TestEulerAnalyzerAgreesWithEngine(t *testing.T) {
	// The engine splits nlev over the 8 mesh rows; the analyzer, asked
	// for the largest block that fits, must accept that choice (block
	// nlev/8 must fit) for the paper's dycore dimensions.
	const np, nlev = 4, 128
	k := EulerAthreadKernel(np, nlev)
	r := Analyze(k)
	if r.MinBlockFail {
		t.Fatal("euler cannot fit at any block size")
	}
	if r.Block < nlev/8 {
		t.Errorf("analyzer's best block %d is below the engine's nlev/8 = %d", r.Block, nlev/8)
	}
	// Cross-check against the live engine: its recorded LDM peak at the
	// engine's blocking must match the analyzer's accounting to within
	// the scratch slack.
	m := mesh.New(2, 4)
	en := exec.NewEngine(m, []int{0, 1, 2, 3, 4, 5, 6, 7}, nlev, 4)
	st := dycore.NewState(8, np, nlev, 4)
	for ei := range st.DP {
		for i := range st.DP[ei] {
			st.DP[ei][i] = 100
			st.Qdp[ei][i%len(st.Qdp[ei])] = 1
		}
	}
	cost := en.EulerStep(exec.Athread, st, 10)
	analyzed := totalBytes(k, nlev/8)
	if cost.LDMPeak > int64(analyzed)+4096 {
		t.Errorf("engine LDM peak %d exceeds analyzed %d by more than slack", cost.LDMPeak, analyzed)
	}
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("engine overflows LDM: %d", cost.LDMPeak)
	}
}

func TestRHSAnalyzerRequiresTiling(t *testing.T) {
	// At nlev=128 the rhs working set exceeds 64 KB untiled and must be
	// tiled; at nlev=8 it fits whole.
	big := Analyze(RHSAthreadKernel(4, 128))
	if big.Fits {
		t.Error("nlev=128 rhs should not fit untiled")
	}
	if big.MinBlockFail {
		t.Error("nlev=128 rhs must fit after tiling")
	}
	if big.Block < 16 {
		t.Errorf("rhs best block %d; the engine's nlev/8=16 must fit", big.Block)
	}
	small := Analyze(RHSAthreadKernel(4, 8))
	if !small.Fits {
		t.Error("nlev=8 rhs should fit untiled")
	}
}

func TestOpenACCWholeElementOverflow(t *testing.T) {
	// The directive port cannot buffer whole elements at CAM dims — the
	// reason the Sunway OpenACC compiler grew multi-dimensional
	// buffering extensions (§5.3).
	r := Analyze(OpenACCWholeElementKernel(4, 128, 8))
	if r.Fits {
		t.Error("8 whole-element fields at nlev=128 should overflow 64 KB")
	}
	if r.MinBlockFail {
		t.Error("tiling should rescue the OpenACC buffering")
	}
}

func TestAnalyzeReportStrings(t *testing.T) {
	fits := Analyze(Kernel{Name: "tiny", Axis: "levels", Full: 8,
		Arrays: []Array{{Name: "a", Elems: 100, Axis: Tiled}}})
	if !strings.Contains(fits.String(), "fits LDM untiled") {
		t.Errorf("report: %s", fits.String())
	}
	tiled := Analyze(Kernel{Name: "big", Axis: "levels", Full: 64,
		Arrays: []Array{{Name: "a", Elems: 64 * 4096, Axis: Tiled}}})
	if !strings.Contains(tiled.String(), "tile to block=") {
		t.Errorf("report: %s", tiled.String())
	}
	hopeless := Analyze(Kernel{Name: "hopeless", Axis: "levels", Full: 4,
		Arrays: []Array{{Name: "fixed monster", Elems: 10000, Axis: Fixed}}})
	if !hopeless.MinBlockFail || !strings.Contains(hopeless.String(), "restructuring") {
		t.Errorf("report: %s", hopeless.String())
	}
}

func TestBlockIsDivisorAndMaximal(t *testing.T) {
	k := Kernel{Name: "k", Axis: "levels", Full: 60,
		Arrays: []Array{{Name: "f", Elems: 60 * 300, Axis: Tiled}}}
	r := Analyze(k)
	if 60%r.Block != 0 {
		t.Errorf("block %d does not divide 60", r.Block)
	}
	// No larger divisor fits.
	for _, b := range divisorsDescending(60) {
		if b <= r.Block {
			break
		}
		if totalBytes(k, b) <= sw.LDMBytes {
			t.Errorf("divisor %d also fits but analyzer chose %d", b, r.Block)
		}
	}
}

func TestCopiesMultiply(t *testing.T) {
	single := Analyze(Kernel{Name: "s", Full: 8,
		Arrays: []Array{{Name: "a", Elems: 1000, Axis: Fixed, Copies: 1}}})
	double := Analyze(Kernel{Name: "d", Full: 8,
		Arrays: []Array{{Name: "a", Elems: 1000, Axis: Fixed, Copies: 2}}})
	if double.FullBytes != 2*single.FullBytes {
		t.Errorf("copies accounting wrong: %d vs %d", double.FullBytes, single.FullBytes)
	}
}

// TestRankStateMatchesAllocatedState cross-checks the accounting
// formula against the real thing: summing len() over every field of an
// actual dycore.State must equal StateBytes/8, for a grid of dims.
func TestRankStateMatchesAllocatedState(t *testing.T) {
	for _, tc := range []struct{ np, nlev, qsize, elems int }{
		{4, 30, 4, 1},
		{4, 30, 4, 24},
		{4, 8, 2, 6},
		{4, 128, 27, 3}, // CAM production dims
		{3, 4, 0, 5},    // tracer-free
	} {
		st := dycore.NewState(tc.elems, tc.np, tc.nlev, tc.qsize)
		floats := 0
		for e := 0; e < tc.elems; e++ {
			floats += len(st.U[e]) + len(st.V[e]) + len(st.T[e]) +
				len(st.DP[e]) + len(st.Qdp[e]) + len(st.Phis[e])
		}
		f := RankState(tc.np, tc.nlev, tc.qsize, tc.elems)
		if got := f.StateBytes; got != floats*8 {
			t.Errorf("%+v: StateBytes = %d, allocated state holds %d bytes", tc, got, floats*8)
		}
		// Scratch is 2 state copies + 4 laplacian fields + 1 tracer field.
		npsq := tc.np * tc.np
		scratchFloats := 2*floats + tc.elems*(4*tc.nlev*npsq+tc.qsize*tc.nlev*npsq)
		if got := f.ScratchBytes; got != scratchFloats*8 {
			t.Errorf("%+v: ScratchBytes = %d, want %d", tc, got, scratchFloats*8)
		}
		if f.Total() != f.StateBytes+f.ScratchBytes {
			t.Errorf("%+v: Total %d != state %d + scratch %d", tc, f.Total(), f.StateBytes, f.ScratchBytes)
		}
	}
}
