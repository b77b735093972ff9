package exec

// Tests of the single-source kernel layer (kernel.go): cross-backend
// bit-identity and Cost-counter consistency of the lowered
// hypervis/biharmonic kernels, the cost-parity regressions for the two
// historical accounting divergences, the primitive-derived analytic
// formulas, and the rowLevels vertical split at awkward nlev.
//
// Before the hand-written backend bodies were deleted, a transient
// differential sweep proved the lowered kernels bit-identical in state
// (FNV-64) and exactly equal in every Cost counter to the fixed
// hand-written kernels across backends × workers {1,4} × subset splits
// {Whole, even-odd, head-tail, empty-open, empty-close} — with one
// intended delta: the hand-written Athread DP1 allocated an unused
// 4·np² LDM buffer ("dd"), so its LDMPeak was 28·np²·8 where the
// lowered kernel's is 24·np²·8. The goldens pinned below are from that
// verified run.

import (
	"math/rand"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/sw"
)

// slabKernelRun drives the three lowered dissipation kernels (DP1 and
// DP2 through `launch`, Whole or Open+Close; biharmonic Whole) and
// returns the combined FNV-64 state/output hash plus the per-kernel
// Costs.
func slabKernelRun(en *Engine, b Backend, st0 *dycore.State, nlev, npsq int,
	launch func(func(Subset) Cost) Cost) (uint64, [3]Cost) {
	st := st0.Clone()
	mk := func() [][]float64 {
		f := make([][]float64, st.NElem())
		for i := range f {
			f[i] = make([]float64, nlev*npsq)
		}
		return f
	}
	lu, lv, lt, lp := mk(), mk(), mk(), mk()
	bi := mk()
	var costs [3]Cost
	costs[0] = launch(func(sub Subset) Cost { return en.hypervisDP1(sub, b, st, lu, lv, lt, lp) })
	costs[1] = launch(func(sub Subset) Cost { return en.hypervisDP2(sub, b, lu, lv, lt, lp, st, 90, 1e15, 1e15) })
	costs[2] = en.biharmonicDP3D(b, st.DP, bi)
	return hashState(st) ^ hashFields(lu, lv, lt, lp, bi), costs
}

// TestLoweredKernelSweep: one body, three lowerings — every backend,
// worker count, and subset split must produce the SAME bits as the
// Intel workers=1 Whole reference (the Vec4 slabs are bit-exact
// against the scalar slabs, so cross-backend identity is exact, not
// approximate), and every variant of one backend must report the same
// Cost as that backend's Whole reference.
func TestLoweredKernelSweep(t *testing.T) {
	for _, shape := range []struct{ ne, nlev, qsize int }{
		{4, 8, 2},
		{3, 10, 1},
	} {
		m, _, st0 := testSetup(t, shape.ne, shape.nlev, shape.qsize)
		npsq := m.Np * m.Np
		refEn := tiledEngine(m, shape.nlev, shape.qsize, 1)
		refHash, _ := slabKernelRun(refEn, Intel, st0, shape.nlev, npsq,
			func(f func(Subset) Cost) Cost { return f(Subset{}) })
		for _, b := range Backends {
			wholeEn := tiledEngine(m, shape.nlev, shape.qsize, 1)
			wantHash, wantCosts := slabKernelRun(wholeEn, b, st0, shape.nlev, npsq,
				func(f func(Subset) Cost) Cost { return f(Subset{}) })
			if wantHash != refHash {
				t.Errorf("ne%d %v: state hash %x != Intel reference %x (cross-backend bit-identity)",
					shape.ne, b, wantHash, refHash)
			}
			for _, workers := range []int{1, 4} {
				for _, split := range splitNames {
					en := tiledEngine(m, shape.nlev, shape.qsize, workers)
					oSlots, cSlots := splitOf(split, m.NElems())
					open, inner := en.CompileSubset(oSlots), en.CompileSubset(cSlots)
					gotHash, gotCosts := slabKernelRun(en, b, st0, shape.nlev, npsq,
						func(f func(Subset) Cost) Cost {
							var c Cost
							c.Add(f(Subset{Sel: open, Phase: Open}))
							c.Add(f(Subset{Sel: inner, Phase: Close}))
							c.Backend = b // Cost.Add merges counters only
							return c
						})
					if gotHash != wantHash {
						t.Errorf("ne%d %v workers=%d split=%s: state hash %x != whole %x",
							shape.ne, b, workers, split, gotHash, wantHash)
					}
					if gotCosts != wantCosts {
						t.Errorf("ne%d %v workers=%d split=%s: cost diverged\n split: %+v\n whole: %+v",
							shape.ne, b, workers, split, gotCosts, wantCosts)
					}
				}
			}
		}
	}
}

// TestLoweredKernelCostGoldens pins the exact Cost records of the
// DP1 → DP2 → biharmonic sequence (Whole, workers=1, ne=2, nlev=8,
// qsize=1), captured from the run that was differentially verified
// against the hand-written kernels. Any change to a lowering's flop,
// byte, DMA, launch, or LDM accounting fails here. Note LDMPeak is a
// lifetime high-water mark per worker, so DP2's 28·np²·8 = 3584 bytes
// carries into the biharmonic row of this sequence.
func TestLoweredKernelCostGoldens(t *testing.T) {
	want := map[Backend][3]Cost{
		Intel: {
			{Backend: Intel, FlopsScalar: 645120, MaxCPEFlops: 645120, MemBytes: 196608},
			{Backend: Intel, FlopsScalar: 669696, MaxCPEFlops: 669696, MemBytes: 196608},
			{Backend: Intel, FlopsScalar: 159744, MaxCPEFlops: 159744, MemBytes: 49152},
		},
		OpenACC: {
			{Backend: OpenACC, FlopsScalar: 645120, MaxCPEFlops: 10080, MemBytes: 418176, DMAOps: 2304, Launches: 1, LDMPeak: 3072},
			{Backend: OpenACC, FlopsScalar: 669696, MaxCPEFlops: 10464, MemBytes: 516480, DMAOps: 3072, Launches: 1, LDMPeak: 3584},
			{Backend: OpenACC, FlopsScalar: 159744, MaxCPEFlops: 2496, MemBytes: 172416, DMAOps: 960, Launches: 1, LDMPeak: 3584},
		},
		Athread: {
			{Backend: Athread, FlopsVector: 666624, MaxCPEFlops: 10416, MemBytes: 417920, DMAOps: 2176, Launches: 1, LDMPeak: 3072},
			{Backend: Athread, FlopsVector: 691200, MaxCPEFlops: 10800, MemBytes: 516224, DMAOps: 2944, Launches: 1, LDMPeak: 3584},
			{Backend: Athread, FlopsVector: 165888, MaxCPEFlops: 2592, MemBytes: 172160, DMAOps: 832, Launches: 1, LDMPeak: 3584},
		},
	}
	m, _, st0 := testSetup(t, 2, 8, 1)
	npsq := m.Np * m.Np
	for _, b := range Backends {
		en := tiledEngine(m, 8, 1, 1)
		_, costs := slabKernelRun(en, b, st0, 8, npsq,
			func(f func(Subset) Cost) Cost { return f(Subset{}) })
		for ki, kn := range []string{"hypervis_dp1", "hypervis_dp2", "biharmonic_dp3d"} {
			if costs[ki] != want[b][ki] {
				t.Errorf("%v %s:\n got:  %+v\n want: %+v", b, kn, costs[ki], want[b][ki])
			}
		}
	}
}

// TestHypervisUpdateFlopParity is the satellite-1 regression: the DP2
// update must cost the SAME on every backend — 4 fields × axpyFlops =
// 8·np² per level — observable as the DP2−DP1 flop delta (the
// Laplacian passes of the two kernels are identical work). The
// original divergence (12·np² OpenACC, 8·np² Athread, 16·np² serial
// analytic) fails this immediately.
func TestHypervisUpdateFlopParity(t *testing.T) {
	for _, shape := range []struct{ ne, nlev, qsize int }{
		{2, 8, 1},
		{3, 10, 1},
	} {
		m, _, st0 := testSetup(t, shape.ne, shape.nlev, shape.qsize)
		np := m.Np
		npsq := np * np
		wantDelta := 4 * axpyFlops(np) * int64(shape.nlev) * int64(m.NElems())
		for _, b := range Backends {
			en := tiledEngine(m, shape.nlev, shape.qsize, 1)
			_, costs := slabKernelRun(en, b, st0, shape.nlev, npsq,
				func(f func(Subset) Cost) Cost { return f(Subset{}) })
			delta := costs[1].Flops() - costs[0].Flops()
			if delta != wantDelta {
				t.Errorf("ne%d %v: DP2-DP1 flop delta %d, want %d (= 8·np²·nlev·nelems)",
					shape.ne, b, delta, wantDelta)
			}
			// The scalar backends charge the primitive-derived analytic
			// totals; any per-kernel flop or byte mismatch between them
			// for identical logical work is a drift regression.
			if b == Intel || b == OpenACC {
				want1 := hypervis1Flops(np, shape.nlev) * int64(m.NElems())
				want2 := hypervis2Flops(np, shape.nlev) * int64(m.NElems())
				if costs[0].Flops() != want1 || costs[1].Flops() != want2 {
					t.Errorf("ne%d %v: kernel flops (%d, %d) != analytic (%d, %d)",
						shape.ne, b, costs[0].Flops(), costs[1].Flops(), want1, want2)
				}
			}
			wantBytes := hypervisBytes(np, shape.nlev) * int64(m.NElems())
			if b == Intel {
				if costs[0].MemBytes != wantBytes || costs[1].MemBytes != wantBytes {
					t.Errorf("ne%d %v: kernel bytes (%d, %d) != analytic %d",
						shape.ne, b, costs[0].MemBytes, costs[1].MemBytes, wantBytes)
				}
			}
		}
	}
}

// TestAthreadDP2VectorCounters is the satellite-2 regression: the
// Athread update is pure Vec4 work with the Splat of the hoisted
// coefficient at slab scope — the counters must show zero scalar CPE
// flops and exactly 8·np² vector flops per level over DP1's count.
func TestAthreadDP2VectorCounters(t *testing.T) {
	m, _, st0 := testSetup(t, 2, 8, 1)
	npsq := m.Np * m.Np
	en := tiledEngine(m, 8, 1, 1)
	_, costs := slabKernelRun(en, Athread, st0, 8, npsq,
		func(f func(Subset) Cost) Cost { return f(Subset{}) })
	if costs[0].FlopsScalar != 0 || costs[1].FlopsScalar != 0 {
		t.Errorf("Athread hypervis counted scalar CPE flops: dp1=%d dp2=%d",
			costs[0].FlopsScalar, costs[1].FlopsScalar)
	}
	wantDelta := int64(8*npsq) * 8 * int64(m.NElems())
	if d := costs[1].FlopsVector - costs[0].FlopsVector; d != wantDelta {
		t.Errorf("Athread DP2-DP1 vector flops %d, want %d", d, wantDelta)
	}
	// Absolute pin at this config (ne=2, nlev=8): the per-level Vec4
	// Laplacian counts (3472) plus the 128-flop update, over 24
	// elements — unchanged by the Splat hoist.
	if costs[1].FlopsVector != 691200 {
		t.Errorf("Athread DP2 vector flops %d, want 691200", costs[1].FlopsVector)
	}
}

// TestAnalyticFormulasDerivedFromSpecs: the model formulas exported to
// internal/perf are literally the specs' counted bodies — this pins
// the shape of each body (one vector + two scalar Laplacians; plus
// four axpy updates for DP2; one scalar Laplacian for biharmonic) and
// the serial byte model.
func TestAnalyticFormulasDerivedFromSpecs(t *testing.T) {
	for _, np := range []int{3, 4, 5} {
		for _, nlev := range []int{1, 8, 30} {
			nl := int64(nlev)
			if got, want := hypervis1Flops(np, nlev), (vecLapFlops(np)+2*lapFlops(np))*nl; got != want {
				t.Errorf("hypervis1Flops(%d,%d) = %d, want %d", np, nlev, got, want)
			}
			if got, want := hypervis2Flops(np, nlev), (vecLapFlops(np)+2*lapFlops(np)+4*axpyFlops(np))*nl; got != want {
				t.Errorf("hypervis2Flops(%d,%d) = %d, want %d", np, nlev, got, want)
			}
			if got, want := biharmonicDP3DSpec.levelFlops(np)*nl, lapFlops(np)*nl; got != want {
				t.Errorf("biharmonic flops(%d,%d) = %d, want %d", np, nlev, got, want)
			}
			if got, want := hypervisDP1Spec.serialBytes(np, nlev), hypervisBytes(np, nlev); got != want {
				t.Errorf("dp1 serialBytes(%d,%d) = %d, want hypervisBytes %d", np, nlev, got, want)
			}
			if got, want := hypervisDP2Spec.serialBytes(np, nlev), hypervisBytes(np, nlev); got != want {
				t.Errorf("dp2 serialBytes(%d,%d) = %d, want hypervisBytes %d", np, nlev, got, want)
			}
			if got, want := biharmonicDP3DSpec.serialBytes(np, nlev), int64(16*np*np*nlev); got != want {
				t.Errorf("biharmonic serialBytes(%d,%d) = %d, want %d", np, nlev, got, want)
			}
		}
	}
}

// TestRowLevelsEdgeCases (satellite 3): for any nlev — including
// nlev < MeshDim, nlev=1, nlev=9 — the 8 per-row ranges must tile
// [0, nlev) exactly, in row order, with block sizes differing by at
// most one; rows beyond nlev get empty ranges; maxRowLevels is the
// ceiling block.
func TestRowLevelsEdgeCases(t *testing.T) {
	for _, nlev := range []int{1, 2, 3, 5, 7, 8, 9, 10, 16, 30, 128} {
		en := &Engine{Nlev: nlev}
		next := 0
		minC, maxC := nlev+1, -1
		for row := 0; row < sw.MeshDim; row++ {
			start, count := en.rowLevels(row)
			if count < 0 || start != next {
				t.Fatalf("nlev=%d row=%d: range [%d,%d) does not continue at %d",
					nlev, row, start, start+count, next)
			}
			if row >= nlev && count != 0 {
				t.Errorf("nlev=%d row=%d: want empty range, got %d levels", nlev, row, count)
			}
			if count < minC {
				minC = count
			}
			if count > maxC {
				maxC = count
			}
			next = start + count
		}
		if next != nlev {
			t.Errorf("nlev=%d: rows cover [0,%d), want [0,%d)", nlev, next, nlev)
		}
		if maxC-minC > 1 {
			t.Errorf("nlev=%d: block sizes range %d..%d, want spread <= 1", nlev, minC, maxC)
		}
		if got := en.maxRowLevels(); got != maxC {
			t.Errorf("nlev=%d: maxRowLevels = %d, want %d", nlev, got, maxC)
		}
	}
}

// TestLoweredSmallNlevBitIdenticalToSerial (satellite 3): at nlev=1
// (seven of eight mesh rows idle), nlev=3, and nlev=9 the lowered CPE
// kernels must still be bit-identical to the serial backend.
func TestLoweredSmallNlevBitIdenticalToSerial(t *testing.T) {
	m := mesh.New(2, 4)
	np := m.Np
	npsq := np * np
	for _, nlev := range []int{1, 3, 9} {
		st0 := dycore.NewState(m.NElems(), np, nlev, 0)
		rng := rand.New(rand.NewSource(7))
		for _, f := range [][][]float64{st0.U, st0.V, st0.T, st0.DP} {
			for _, row := range f {
				for i := range row {
					row[i] = rng.Float64()*2 - 1
				}
			}
		}
		ref := tiledEngine(m, nlev, 0, 1)
		wantHash, _ := slabKernelRun(ref, Intel, st0, nlev, npsq,
			func(f func(Subset) Cost) Cost { return f(Subset{}) })
		for _, b := range []Backend{OpenACC, Athread} {
			for _, workers := range []int{1, 4} {
				en := tiledEngine(m, nlev, 0, workers)
				gotHash, _ := slabKernelRun(en, b, st0, nlev, npsq,
					func(f func(Subset) Cost) Cost { return f(Subset{}) })
				if gotHash != wantHash {
					t.Errorf("nlev=%d %v workers=%d: hash %x != serial %x",
						nlev, b, workers, gotHash, wantHash)
				}
			}
		}
	}
}
