package exec

import (
	"math"
	"math/rand"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/sw"
)

// testSetup builds a mesh, an engine over all elements, and a realistic
// random state (baroclinic-wave-like amplitudes).
func testSetup(t *testing.T, ne, nlev, qsize int) (*mesh.Mesh, *Engine, *dycore.State) {
	t.Helper()
	m := mesh.New(ne, 4)
	elems := make([]int, m.NElems())
	for i := range elems {
		elems[i] = i
	}
	en := NewEngine(m, elems, nlev, qsize)

	cfg := dycore.DefaultConfig(ne)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)
	// Give tracers structure.
	rng := rand.New(rand.NewSource(1))
	for ei := range st.Qdp {
		for i := range st.Qdp[ei] {
			st.Qdp[ei][i] = rng.Float64() * 10
		}
	}
	return m, en, st
}

func relDiff(a, b [][]float64) float64 {
	max, scale := 0.0, 0.0
	for i := range a {
		for k := range a[i] {
			d := math.Abs(a[i][k] - b[i][k])
			if d > max {
				max = d
			}
			if s := math.Abs(a[i][k]); s > scale {
				scale = s
			}
		}
	}
	if scale == 0 {
		return max
	}
	return max / scale
}

func TestEulerBackendsEquivalent(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 8, 3)
	const dt = 100.0

	results := map[Backend]*dycore.State{}
	for _, b := range Backends {
		st := st0.Clone()
		cost := en.EulerStep(b, st, dt)
		if cost.Flops() == 0 {
			t.Fatalf("%v: no flops accounted", b)
		}
		results[b] = st
	}
	ref := results[Intel]
	for _, b := range []Backend{MPE, OpenACC, Athread} {
		if d := relDiff(ref.Qdp, results[b].Qdp); d > 1e-13 {
			t.Errorf("%v euler differs from Intel by %g", b, d)
		}
	}
	// The advance must actually change the tracers.
	if d := relDiff(ref.Qdp, st0.Qdp); d == 0 {
		t.Fatal("euler step was a no-op")
	}
}

// The §7.3 claim: the Athread rewrite (Algorithm 2) eliminates the
// per-tracer re-read of the non-tracer arrays that Algorithm 1's
// inside-the-q-loop copyin forces, cutting total transfer volume (the
// paper reports ~10% with CAM's full set of non-tracer dynamics arrays;
// our miniature kernel carries only u and v as non-tracer inputs, so the
// asymptotic ratio is higher — see EXPERIMENTS.md — but the structure is
// the same: the ratio falls as tracers are added, because Athread's
// velocity traffic is constant in qsize while OpenACC's is linear).
func TestEulerTrafficReduction(t *testing.T) {
	ratioAt := func(qsize int) float64 {
		_, en, st0 := testSetup(t, 2, 16, qsize)
		accCost := en.EulerStep(OpenACC, st0.Clone(), 100)
		athCost := en.EulerStep(Athread, st0.Clone(), 100)
		if accCost.MemBytes == 0 || athCost.MemBytes == 0 {
			t.Fatal("no DMA traffic accounted")
		}
		if athCost.FlopsVector == 0 {
			t.Error("Athread euler retired no vector flops")
		}
		if accCost.FlopsVector != 0 {
			t.Error("OpenACC euler should not vectorize")
		}
		return float64(athCost.MemBytes) / float64(accCost.MemBytes)
	}
	r2 := ratioAt(2)
	r8 := ratioAt(8)
	if r8 >= 1 {
		t.Errorf("Athread euler moves more data than OpenACC (ratio %.3f)", r8)
	}
	if r8 >= r2 {
		t.Errorf("traffic ratio does not improve with tracer count: q=2 %.3f, q=8 %.3f", r2, r8)
	}
	if r8 > 0.65 {
		t.Errorf("Athread/OpenACC euler traffic ratio = %.3f at qsize=8, want < 0.65", r8)
	}
}

func TestRHSBackendsEquivalent(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 8, 0)
	const dt = 60.0
	results := map[Backend]*dycore.State{}
	for _, b := range Backends {
		cur := st0.Clone()
		out := st0.Clone()
		cost := en.ComputeAndApplyRHS(b, cur, cur, out, dt)
		if cost.Flops() == 0 {
			t.Fatalf("%v: no flops accounted", b)
		}
		results[b] = out
	}
	ref := results[Intel]
	// MPE and OpenACC recompute the serial scans: bitwise identical.
	for _, b := range []Backend{MPE, OpenACC} {
		for _, f := range [][2][][]float64{
			{ref.U, results[b].U}, {ref.V, results[b].V},
			{ref.T, results[b].T}, {ref.DP, results[b].DP},
		} {
			if d := relDiff(f[0], f[1]); d != 0 {
				t.Errorf("%v rhs differs from Intel by %g (want bitwise)", b, d)
			}
		}
	}
	// Athread regroups the vertical scans across CPEs: rounding-level
	// differences only.
	b := Athread
	for name, f := range map[string][2][][]float64{
		"U": {ref.U, results[b].U}, "V": {ref.V, results[b].V},
		"T": {ref.T, results[b].T}, "DP": {ref.DP, results[b].DP},
	} {
		if d := relDiff(f[0], f[1]); d > 1e-12 {
			t.Errorf("Athread rhs %s differs from Intel by %g", name, d)
		}
	}
	// Athread must use register communication for the scans.
	// (Cost collected above; rerun to inspect.)
	cur := st0.Clone()
	out := st0.Clone()
	cost := en.ComputeAndApplyRHS(Athread, cur, cur, out, dt)
	if cost.RegMsgs == 0 {
		t.Error("Athread rhs used no register communication")
	}
}

// The OpenACC rhs carries the O(nlev) redundancy of dependency-blind
// level parallelism: its flop count must exceed the serial kernel's by a
// factor that grows with nlev — the root cause of it losing to a single
// Intel core in Table 1.
func TestRHSOpenACCRedundancy(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 16, 0)
	cur := st0.Clone()
	out := st0.Clone()
	serial := en.ComputeAndApplyRHS(Intel, cur, cur, out, 60)
	cur2 := st0.Clone()
	out2 := st0.Clone()
	acc := en.ComputeAndApplyRHS(OpenACC, cur2, cur2, out2, 60)
	if acc.Flops() < 2*serial.Flops() {
		t.Errorf("OpenACC rhs flops %d not >> serial %d: redundancy not modeled",
			acc.Flops(), serial.Flops())
	}
	cur3 := st0.Clone()
	out3 := st0.Clone()
	ath := en.ComputeAndApplyRHS(Athread, cur3, cur3, out3, 60)
	// The Athread redesign removes the redundancy: within 2x of serial.
	if ath.Flops() > 2*serial.Flops() {
		t.Errorf("Athread rhs flops %d vs serial %d: scan parallelization missing",
			ath.Flops(), serial.Flops())
	}
}

func TestHypervisBackendsEquivalent(t *testing.T) {
	m, en, st0 := testSetup(t, 2, 8, 0)
	const (
		dt  = 60.0
		nuV = 1e15
		nuS = 1e15
	)
	npsq := m.Np * m.Np
	allocAll := func() [][]float64 {
		f := make([][]float64, m.NElems())
		for i := range f {
			f[i] = make([]float64, 8*npsq)
		}
		return f
	}
	type result struct {
		st             *dycore.State
		lu, lv, lt, lp [][]float64
	}
	results := map[Backend]result{}
	for _, b := range Backends {
		st := st0.Clone()
		lu, lv, lt, lp := allocAll(), allocAll(), allocAll(), allocAll()
		c1 := en.HypervisDP1(b, st, lu, lv, lt, lp)
		c2 := en.HypervisDP2(b, lu, lv, lt, lp, st, dt, nuV, nuS)
		if c1.Flops() == 0 || c2.Flops() == 0 {
			t.Fatalf("%v: no flops accounted", b)
		}
		results[b] = result{st, lu, lv, lt, lp}
	}
	ref := results[Intel]
	for _, b := range []Backend{MPE, OpenACC, Athread} {
		r := results[b]
		if d := relDiff(ref.lu, r.lu); d > 1e-13 {
			t.Errorf("%v hypervis pass1 lapU differs by %g", b, d)
		}
		if d := relDiff(ref.st.U, r.st.U); d > 1e-13 {
			t.Errorf("%v hypervis update U differs by %g", b, d)
		}
		if d := relDiff(ref.st.T, r.st.T); d > 1e-13 {
			t.Errorf("%v hypervis update T differs by %g", b, d)
		}
	}
}

func TestBiharmonicBackendsEquivalent(t *testing.T) {
	m, en, st0 := testSetup(t, 2, 8, 0)
	npsq := m.Np * m.Np
	out := map[Backend][][]float64{}
	for _, b := range Backends {
		o := make([][]float64, m.NElems())
		for i := range o {
			o[i] = make([]float64, 8*npsq)
		}
		if cost := en.BiharmonicDP3D(b, st0.DP, o); cost.Flops() == 0 {
			t.Fatalf("%v: no flops", b)
		}
		out[b] = o
	}
	for _, b := range []Backend{MPE, OpenACC, Athread} {
		if d := relDiff(out[Intel], out[b]); d > 1e-13 {
			t.Errorf("%v biharmonic differs by %g", b, d)
		}
	}
}

func TestRemapBackendsEquivalent(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 8, 2)
	h := dycore.NewHybridCoord(8)
	// Deform dp so the remap has work to do.
	for ei := range st0.DP {
		for i := range st0.DP[ei] {
			st0.DP[ei][i] *= 1 + 0.05*math.Sin(float64(i))
		}
	}
	results := map[Backend]*dycore.State{}
	for _, b := range Backends {
		st := st0.Clone()
		if cost := en.VerticalRemap(b, h, st); cost.Flops() == 0 {
			t.Fatalf("%v: no flops", b)
		}
		results[b] = st
	}
	ref := results[Intel]
	for _, b := range []Backend{MPE, OpenACC, Athread} {
		r := results[b]
		for name, f := range map[string][2][][]float64{
			"U": {ref.U, r.U}, "T": {ref.T, r.T},
			"DP": {ref.DP, r.DP}, "Qdp": {ref.Qdp, r.Qdp},
		} {
			if d := relDiff(f[0], f[1]); d != 0 {
				t.Errorf("%v remap %s differs by %g (want bitwise: same column order)", b, name, d)
			}
		}
	}
}

// LDM discipline: every CPE backend must fit the 64 KB scratchpad at the
// paper's dycore dimensions (nlev=128). Spawn panics on overflow, so
// completing is the assertion; also check the recorded peak.
func TestKernelsFitLDMAtNlev128(t *testing.T) {
	if testing.Short() {
		t.Skip("nlev=128 element set is slow in -short mode")
	}
	m := mesh.New(1, 4) // 6 elements suffice
	elems := []int{0, 1, 2, 3, 4, 5}
	en := NewEngine(m, elems, 128, 4)
	cfg := dycore.DefaultConfig(1)
	cfg.Nlev = 128
	cfg.Qsize = 4
	cfg.Ne = 1
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	s.InitBaroclinicWave(st)

	cost := en.EulerStep(Athread, st.Clone(), 10)
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("euler athread LDM peak %d exceeds 64 KB", cost.LDMPeak)
	}
	out := st.Clone()
	cost = en.ComputeAndApplyRHS(Athread, st, st, out, 10)
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("rhs athread LDM peak %d exceeds 64 KB", cost.LDMPeak)
	}
	cost = en.ComputeAndApplyRHS(OpenACC, st, st, out, 10)
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("rhs openacc LDM peak %d exceeds 64 KB", cost.LDMPeak)
	}
	h := dycore.NewHybridCoord(128)
	cost = en.VerticalRemap(Athread, h, st.Clone())
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("remap athread LDM peak %d exceeds 64 KB", cost.LDMPeak)
	}
}

// TestVecOpsMatchScalarSlabs holds the Athread slab functions to the
// serial slabs bit for bit and to the vector-flop charge of the
// hand-written Vec4 bodies they replaced (literal totals at np = 4, not
// re-derived from the formulas in vecops.go).
func TestVecOpsMatchScalarSlabs(t *testing.T) {
	m := mesh.New(2, 4)
	e := m.Elements[7]
	np := 4
	npsq := np * np
	rng := rand.New(rand.NewSource(9))
	slab := func() []float64 { return make([]float64, npsq) }
	u, v := slab(), slab()
	for i := range u {
		u[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	var scr [6][]float64
	for i := range scr {
		scr[i] = slab()
	}
	d, dA := m.DerivFlat, e.DAlpha
	divS, gxS, gyS, vortS, lapS, luS, lvS := slab(), slab(), slab(), slab(), slab(), slab(), slab()
	dycore.DivergenceSlab(d, e.DinvFlat, e.Metdet, dA, np, u, v, divS, scr[0], scr[1])
	dycore.GradientSlab(d, e.DinvFlat, dA, np, u, gxS, gyS, scr[0], scr[1])
	dycore.VorticitySlab(d, e.DFlat, e.Metdet, dA, np, u, v, vortS, scr[0], scr[1])
	dycore.LaplaceSlab(d, e.DinvFlat, e.Metdet, dA, np, u, lapS, scr[0], scr[1], scr[2], scr[3])
	dycore.VecLaplaceSlab(d, e.DFlat, e.DinvFlat, e.Metdet, dA, np, u, v, luS, lvS,
		scr[0], scr[1], scr[2], scr[3], scr[4], scr[5])

	divV, gxV, gyV, vortV, lapV, luV, lvV := slab(), slab(), slab(), slab(), slab(), slab(), slab()
	var charged [5]int64
	cg := sw.NewCoreGroup(0)
	cg.Spawn(func(c *sw.CPE) {
		if c.ID != 0 {
			return
		}
		var g [6][]float64
		for i := range g {
			g[i] = c.LDM.MustAlloc(slabOpNames[i], npsq)
		}
		ops := []func(){
			func() { divergenceSlabVec4(c, d, e.DinvFlat, e.Metdet, dA, u, v, divV, g[0], g[1]) },
			func() { gradientSlabVec4(c, d, e.DinvFlat, dA, u, gxV, gyV, g[0], g[1]) },
			func() { vorticitySlabVec4(c, d, e.DFlat, e.Metdet, dA, u, v, vortV, g[0], g[1]) },
			func() { laplaceSlabVec4(c, d, e.DinvFlat, e.Metdet, dA, u, lapV, g[0], g[1], g[2], g[3]) },
			func() {
				vecLaplaceSlabVec4(c, d, e.DFlat, e.DinvFlat, e.Metdet, dA, u, v, luV, lvV,
					g[0], g[1], g[2], g[3], g[4], g[5])
			},
		}
		for i, op := range ops {
			before := c.Ctr.FlopsVector
			op()
			charged[i] = c.Ctr.FlopsVector - before
		}
	})
	for i, want := range [5]int64{448, 416, 416, 864, 1744} {
		if charged[i] != want {
			t.Errorf("%s charged %d vector flops, the Vec4 body charged %d",
				[]string{"divergence", "gradient", "vorticity", "laplace", "vecLaplace"}[i], charged[i], want)
		}
	}
	pairs := []struct {
		name      string
		ser, athr []float64
	}{{"divergence", divS, divV}, {"gradient x", gxS, gxV}, {"gradient y", gyS, gyV}, {"vorticity", vortS, vortV},
		{"laplace", lapS, lapV}, {"vecLaplace u", luS, luV}, {"vecLaplace v", lvS, lvV}}
	for _, p := range pairs {
		for n := range p.ser {
			if math.Float64bits(p.ser[n]) != math.Float64bits(p.athr[n]) {
				t.Fatalf("Athread %s differs at node %d: %v vs %v", p.name, n, p.ser[n], p.athr[n])
			}
		}
	}
}

func TestBackendString(t *testing.T) {
	names := map[Backend]string{Intel: "Intel", MPE: "MPE", OpenACC: "OpenACC", Athread: "Athread"}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("backend %d string = %q", int(b), b.String())
		}
	}
	if Backend(9).String() == "" {
		t.Error("unknown backend string empty")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{FlopsScalar: 10, FlopsVector: 4, MaxCPEFlops: 5, MemBytes: 100, DMAOps: 2, RegMsgs: 1, Launches: 1, LDMPeak: 50}
	b := Cost{FlopsScalar: 1, FlopsVector: 1, MaxCPEFlops: 9, MemBytes: 10, DMAOps: 1, RegMsgs: 1, Launches: 1, LDMPeak: 80}
	a.Add(b)
	if a.FlopsScalar != 11 || a.FlopsVector != 5 || a.MaxCPEFlops != 9 ||
		a.MemBytes != 110 || a.DMAOps != 3 || a.RegMsgs != 2 || a.Launches != 2 || a.LDMPeak != 80 {
		t.Errorf("Cost.Add wrong: %+v", a)
	}
	if a.Flops() != 16 {
		t.Errorf("Flops() = %d", a.Flops())
	}
}

func TestUnevenLevelsAccepted(t *testing.T) {
	// The generalized Figure 2 decomposition accepts any nlev: 10 levels
	// spread as 2,2,1,1,1,1,1,1 across the mesh rows, matching Intel.
	m := mesh.New(1, 4)
	elems := []int{0, 1, 2, 3, 4, 5}
	en := NewEngine(m, elems, 10, 1)
	cfg := dycore.DefaultConfig(1)
	cfg.Nlev = 10
	cfg.Qsize = 1
	s, _ := dycore.NewSolver(cfg)
	st := s.NewState()
	s.InitBaroclinicWave(st)
	a := st.Clone()
	en.EulerStep(Intel, a, 10)
	b := st.Clone()
	en.EulerStep(Athread, b, 10)
	if d := relDiff(a.Qdp, b.Qdp); d != 0 {
		t.Errorf("nlev=10 euler differs by %g", d)
	}
	// The transposed-remap ablation keeps its stricter shape requirement
	// and must say so loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("transposed remap accepted an unsupported shape")
		}
	}()
	en.VerticalRemapTransposed(dycore.NewHybridCoord(10), st.Clone())
}

// The §7.5 ablation: the transposed remap must produce identical fields
// to the strided-DMA remap while issuing far fewer DMA descriptors and
// far more register messages — the locality trade the paper's
// transposition machinery exists to win.
func TestRemapTransposedMatchesStrided(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 16, 2)
	h := dycore.NewHybridCoord(16)
	for ei := range st0.DP {
		for i := range st0.DP[ei] {
			st0.DP[ei][i] *= 1 + 0.04*math.Sin(float64(i))
		}
	}
	a := st0.Clone()
	strided := en.VerticalRemap(Athread, h, a)
	b := st0.Clone()
	transposed := en.VerticalRemapTransposed(h, b)

	for name, f := range map[string][2][][]float64{
		"U": {a.U, b.U}, "V": {a.V, b.V}, "T": {a.T, b.T},
		"DP": {a.DP, b.DP}, "Qdp": {a.Qdp, b.Qdp},
	} {
		if d := relDiff(f[0], f[1]); d != 0 {
			t.Errorf("transposed remap %s differs from strided by %g", name, d)
		}
	}
	if transposed.DMAOps*4 > strided.DMAOps {
		t.Errorf("transposed remap should slash DMA issues: %d vs %d",
			transposed.DMAOps, strided.DMAOps)
	}
	if transposed.RegMsgs <= strided.RegMsgs {
		t.Errorf("transposed remap should use register traffic: %d vs %d",
			transposed.RegMsgs, strided.RegMsgs)
	}
	if transposed.LDMPeak > sw.LDMBytes {
		t.Errorf("transposed remap LDM peak %d over budget", transposed.LDMPeak)
	}
}

// The generalized Figure 2 decomposition: CAM's 30 levels do not divide
// by the 8 mesh rows; the Athread kernels must still match the serial
// backends bit-for-bit (euler, hypervis) or to scan rounding (rhs).
func TestAthreadUnevenLevels(t *testing.T) {
	_, en, st0 := testSetup(t, 2, 30, 2)
	// euler
	a := st0.Clone()
	en.EulerStep(Intel, a, 60)
	b := st0.Clone()
	cost := en.EulerStep(Athread, b, 60)
	if d := relDiff(a.Qdp, b.Qdp); d != 0 {
		t.Errorf("nlev=30 euler differs by %g", d)
	}
	if cost.LDMPeak > sw.LDMBytes {
		t.Errorf("nlev=30 euler LDM peak %d", cost.LDMPeak)
	}
	// rhs
	outA := st0.Clone()
	en.ComputeAndApplyRHS(Intel, st0.Clone(), st0.Clone(), outA, 60)
	outB := st0.Clone()
	en.ComputeAndApplyRHS(Athread, st0.Clone(), st0.Clone(), outB, 60)
	for name, f := range map[string][2][][]float64{
		"U": {outA.U, outB.U}, "T": {outA.T, outB.T}, "DP": {outA.DP, outB.DP},
	} {
		if d := relDiff(f[0], f[1]); d > 1e-12 {
			t.Errorf("nlev=30 rhs %s differs by %g", name, d)
		}
	}
	// hypervis pass 1
	npsq := 16
	mk := func() [][]float64 {
		f := make([][]float64, st0.NElem())
		for i := range f {
			f[i] = make([]float64, 30*npsq)
		}
		return f
	}
	lu1, lv1, lt1, lp1 := mk(), mk(), mk(), mk()
	en.HypervisDP1(Intel, st0, lu1, lv1, lt1, lp1)
	lu2, lv2, lt2, lp2 := mk(), mk(), mk(), mk()
	en.HypervisDP1(Athread, st0, lu2, lv2, lt2, lp2)
	if d := relDiff(lu1, lu2); d != 0 {
		t.Errorf("nlev=30 hypervis differs by %g", d)
	}
	// biharmonic
	o1, o2 := mk(), mk()
	en.BiharmonicDP3D(Intel, st0.DP, o1)
	en.BiharmonicDP3D(Athread, st0.DP, o2)
	if d := relDiff(o1, o2); d != 0 {
		t.Errorf("nlev=30 biharmonic differs by %g", d)
	}
}
