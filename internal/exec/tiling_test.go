package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/obs"
	"swcam/internal/sw"
)

// ---------------------------------------------------------------------------
// Tile geometry properties
// ---------------------------------------------------------------------------

func TestComputeTilesProperties(t *testing.T) {
	for _, n := range []int{0, 1, 5, 8, 9, 16, 24, 54, 96, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			tiles := computeTiles(n, workers)
			if n == 0 {
				if len(tiles) != 1 || tiles[0] != (tile{0, 0}) {
					t.Fatalf("n=0 workers=%d: want one empty tile, got %v", workers, tiles)
				}
				continue
			}
			blocks := (n + sw.MeshDim - 1) / sw.MeshDim
			wantNT := workers
			if wantNT > blocks {
				wantNT = blocks
			}
			if len(tiles) != wantNT {
				t.Fatalf("n=%d workers=%d: %d tiles, want %d", n, workers, len(tiles), wantNT)
			}
			// Contiguous, exhaustive, MeshDim-aligned interior boundaries.
			pos := 0
			minB, maxB := n, 0
			for i, tl := range tiles {
				if tl.Lo != pos {
					t.Fatalf("n=%d workers=%d tile %d: Lo=%d, want %d", n, workers, i, tl.Lo, pos)
				}
				if tl.Hi <= tl.Lo {
					t.Fatalf("n=%d workers=%d tile %d: empty tile %v", n, workers, i, tl)
				}
				if tl.Lo%sw.MeshDim != 0 {
					t.Fatalf("n=%d workers=%d tile %d: Lo=%d not MeshDim-aligned", n, workers, i, tl.Lo)
				}
				if i < len(tiles)-1 && tl.Hi%sw.MeshDim != 0 {
					t.Fatalf("n=%d workers=%d tile %d: interior Hi=%d not aligned", n, workers, i, tl.Hi)
				}
				nb := (tl.Hi - tl.Lo + sw.MeshDim - 1) / sw.MeshDim
				if nb < minB {
					minB = nb
				}
				if nb > maxB {
					maxB = nb
				}
				pos = tl.Hi
			}
			if pos != n {
				t.Fatalf("n=%d workers=%d: tiles end at %d", n, workers, pos)
			}
			if maxB-minB > 1 {
				t.Fatalf("n=%d workers=%d: uneven block split (%d..%d blocks per tile)",
					n, workers, minB, maxB)
			}
		}
	}
}

func TestFirstWorkItem(t *testing.T) {
	for _, start := range []int{0, 1, 7, 8, 63, 64, 65, 128, 1000, 4096 + 17} {
		for id := 0; id < sw.CPEsPerCG; id++ {
			w := firstWorkItem(start, id)
			if w < start || w >= start+sw.CPEsPerCG {
				t.Fatalf("firstWorkItem(%d,%d)=%d outside [start, start+64)", start, id, w)
			}
			if w%sw.CPEsPerCG != id {
				t.Fatalf("firstWorkItem(%d,%d)=%d not assigned to CPE %d", start, id, w, id)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Determinism differential sweep: every backend x worker count, every
// kernel, bit-identical state AND bit-identical Cost counters.
// ---------------------------------------------------------------------------

// tiledEngine builds a second engine over the same mesh/elements with n
// workers. A fresh engine (rather than SetWorkers on a shared one) keeps
// the warm pools of the two runs independent.
func tiledEngine(m *mesh.Mesh, nlev, qsize, workers int) *Engine {
	elems := make([]int, m.NElems())
	for i := range elems {
		elems[i] = i
	}
	en := NewEngine(m, elems, nlev, qsize)
	en.SetWorkers(workers)
	return en
}

// hashState folds every bit of the prognostic fields into one value, so
// "bit-identical" is a single comparison (and NaNs can't slip through a
// numeric-difference check).
func hashState(st *dycore.State) uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	mix := func(f [][]float64) {
		for _, row := range f {
			for _, v := range row {
				b := math.Float64bits(v)
				for s := 0; s < 64; s += 8 {
					h ^= (b >> s) & 0xFF
					h *= 1099511628211
				}
			}
		}
	}
	mix(st.U)
	mix(st.V)
	mix(st.T)
	mix(st.DP)
	mix(st.Qdp)
	return h
}

func hashFields(fs ...[][]float64) uint64 {
	var h uint64 = 1469598103934665603
	for _, f := range fs {
		for _, row := range f {
			for _, v := range row {
				b := math.Float64bits(v)
				for s := 0; s < 64; s += 8 {
					h ^= (b >> s) & 0xFF
					h *= 1099511628211
				}
			}
		}
	}
	return h
}

// kernelRun drives every engine kernel once over a seeded random state
// and returns the state hash and the summed Cost — the full observable
// output of the dynamics kernels for one backend.
func kernelRun(t *testing.T, en *Engine, b Backend, m *mesh.Mesh, st0 *dycore.State, nlev int) (uint64, Cost) {
	t.Helper()
	st := st0.Clone()
	h := dycore.NewHybridCoord(nlev)
	npsq := m.Np * m.Np
	mk := func() [][]float64 {
		f := make([][]float64, m.NElems())
		for i := range f {
			f[i] = make([]float64, nlev*npsq)
		}
		return f
	}

	var total Cost
	total.Add(en.EulerStep(b, st, 90))
	out := st.Clone()
	total.Add(en.ComputeAndApplyRHS(b, st, st, out, 90))
	lu, lv, lt, lp := mk(), mk(), mk(), mk()
	total.Add(en.HypervisDP1(b, out, lu, lv, lt, lp))
	total.Add(en.HypervisDP2(b, lu, lv, lt, lp, out, 90, 1e15, 1e15))
	bi := mk()
	total.Add(en.BiharmonicDP3D(b, out.DP, bi))
	// Deform dp so the remap works, then remap (restores reference dp).
	for ei := range out.DP {
		for i := range out.DP[ei] {
			out.DP[ei][i] *= 1 + 0.04*math.Sin(float64(i+ei))
		}
	}
	total.Add(en.VerticalRemap(b, h, out))

	hash := hashState(out) ^ hashFields(lu, lv, lt, lp, bi)
	return hash, total
}

// TestTiledBitIdenticalAllBackends is the determinism contract of this
// package: for every backend and every worker count, the tiled engine
// must reproduce the single-worker engine bit for bit — state fields,
// Laplacian outputs, and every architectural counter in Cost (flops,
// DMA bytes and ops, register messages, launches, LDM peak).
func TestTiledBitIdenticalAllBackends(t *testing.T) {
	const ne, nlev, qsize = 4, 8, 2 // 96 elements: 12 aligned blocks to tile
	m, _, st0 := testSetup(t, ne, nlev, qsize)

	for _, b := range Backends {
		ref := tiledEngine(m, nlev, qsize, 1)
		wantHash, wantCost := kernelRun(t, ref, b, m, st0, nlev)
		for _, workers := range []int{2, 4, 8} {
			en := tiledEngine(m, nlev, qsize, workers)
			gotHash, gotCost := kernelRun(t, en, b, m, st0, nlev)
			if gotHash != wantHash {
				t.Errorf("%v workers=%d: state hash %x != serial %x", b, workers, gotHash, wantHash)
			}
			if gotCost != wantCost {
				t.Errorf("%v workers=%d: cost diverged\n tiled:  %+v\n serial: %+v",
					b, workers, gotCost, wantCost)
			}
		}
	}
}

// The transposed-remap ablation follows the same contract. (The name
// predates the removal of exec's unused shallow-water kernel; it is
// kept so the test floor keeps tracking this sweep.)
func TestTiledBitIdenticalTransposeAndShallow(t *testing.T) {
	const ne, nlev, qsize = 4, 16, 2
	m, _, st0 := testSetup(t, ne, nlev, qsize)
	h := dycore.NewHybridCoord(nlev)
	for ei := range st0.DP {
		for i := range st0.DP[ei] {
			st0.DP[ei][i] *= 1 + 0.03*math.Sin(float64(i))
		}
	}
	ref := tiledEngine(m, nlev, qsize, 1)
	a := st0.Clone()
	refCost := ref.VerticalRemapTransposed(h, a)
	wantHash := hashState(a)

	for _, workers := range []int{2, 4, 8} {
		en := tiledEngine(m, nlev, qsize, workers)
		g := st0.Clone()
		c := en.VerticalRemapTransposed(h, g)
		if hg := hashState(g); hg != wantHash {
			t.Errorf("transposed remap workers=%d: state hash differs", workers)
		}
		if c != refCost {
			t.Errorf("transposed remap workers=%d: cost diverged\n tiled:  %+v\n serial: %+v",
				workers, c, refCost)
		}
	}

}

// Worker counts that don't divide the block count, plus uneven vertical
// levels: the pathological shapes must stay bit-identical too.
func TestTiledBitIdenticalAwkwardShapes(t *testing.T) {
	const ne, nlev, qsize = 3, 10, 1 // 54 elements -> 7 blocks; nlev 10 splits 2,2,1,...
	m, _, st0 := testSetup(t, ne, nlev, qsize)
	for _, b := range Backends {
		ref := tiledEngine(m, nlev, qsize, 1)
		wantHash, wantCost := kernelRun(t, ref, b, m, st0, nlev)
		for _, workers := range []int{3, 5, 7, 16} {
			en := tiledEngine(m, nlev, qsize, workers)
			gotHash, gotCost := kernelRun(t, en, b, m, st0, nlev)
			if gotHash != wantHash || gotCost != wantCost {
				t.Errorf("%v workers=%d (awkward shape): diverged from serial", b, workers)
			}
		}
	}
}

// A panic inside one tile must surface on the kernel caller's goroutine
// (where mpirt expects rank faults), not kill the process from a worker
// — whether it is raised by the tile function itself (the serial
// lowerings) or inside a simulated CPE of the tile's core group.
func TestTilePanicPropagates(t *testing.T) {
	m, _, _ := testSetup(t, 4, 8, 1)
	for _, tc := range []struct {
		name string
		cpe  bool
	}{{"serial", false}, {"athread", true}} {
		t.Run(tc.name, func(t *testing.T) {
			en := tiledEngine(m, 8, 1, 4)
			defer func() {
				// sw.Spawn wraps a CPE panic with the faulting core's id.
				if r := recover(); !strings.Contains(fmt.Sprint(r), "tile fault") {
					t.Fatalf("tile panic did not propagate to the caller: recovered %v", r)
				}
			}()
			if tc.cpe {
				en.armCGs(en.allSub, false)
			}
			en.runTiles(en.allSub, func(w *dynWorker, slots []int, p *serialPartial) {
				if slots[0] == 0 { // the caller's own tile stays healthy
					return
				}
				if !tc.cpe {
					panic("tile fault")
				}
				w.cg.Spawn(func(c *sw.CPE) {
					if c.ID == 9 {
						panic("tile fault")
					}
				})
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Steady-state allocation guards
// ---------------------------------------------------------------------------

// Once the per-worker pools are warm, a kernel launch's only allocations
// are the goroutines of its non-caller tiles: every tile body, serial
// or CPE, is bound once (TestSerialLaunchesAllocateNothing,
// TestCPELaunchesAllocateNothing). Crucially the bounds are per TILE,
// not per element or per column: with 96 elements and 1536 columns in
// play, any per-element scratch allocation would blow these limits by
// orders of magnitude. Split launches are held to the same bound per
// half, and an uninstrumented engine builds no probe name, prices no
// slab spec and binds no slab kernel on the heap.
func TestTiledSteadyStateAllocs(t *testing.T) {
	const ne, nlev, qsize = 4, 8, 2
	m, _, st0 := testSetup(t, ne, nlev, qsize)
	h := dycore.NewHybridCoord(nlev)
	lap := func() [][]float64 {
		f := make([][]float64, m.NElems())
		for i := range f {
			f[i] = make([]float64, m.Np*m.Np*nlev)
		}
		return f
	}
	lapU, lapV, lapT, lapDP := lap(), lap(), lap(), lap()

	for _, workers := range []int{1, 4} {
		en := tiledEngine(m, nlev, qsize, workers)
		tiles := en.Tiles()
		var even, odd []int
		for le := 0; le < m.NElems(); le++ {
			if le%2 == 0 {
				even = append(even, le)
			} else {
				odd = append(odd, le)
			}
		}
		bnd, inn := en.CompileSubset(even), en.CompileSubset(odd)
		open, cls := Subset{Sel: bnd, Phase: Open}, Subset{Sel: inn, Phase: Close}

		// One launch over n tiles allocates the goroutine of each of the
		// n-1 non-caller tiles.
		launch := func(n int) float64 { return float64(n - 1) }
		split := launch(len(bnd.tiles)) + launch(len(inn.tiles))
		for _, b := range Backends {

			st := st0.Clone()
			out := st0.Clone()
			// Warm every pool (workspaces, core groups, snapshot buffers).
			en.EulerStep(b, st, 10)
			en.ComputeAndApplyRHS(b, st, st, out, 10)
			en.VerticalRemap(b, h, st)
			en.HypervisDP1(b, st, lapU, lapV, lapT, lapDP)
			en.HypervisDP2(b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)

			cases := []struct {
				name   string
				budget float64
				fn     func()
			}{
				{"euler", launch(tiles), func() { en.EulerStep(b, st, 10) }},
				{"rhs", launch(tiles), func() { en.ComputeAndApplyRHS(b, st, st, out, 10) }},
				{"remap", launch(tiles), func() { en.VerticalRemap(b, h, st) }},
				{"dp1", launch(tiles), func() { en.HypervisDP1(b, st, lapU, lapV, lapT, lapDP) }},
				{"dp2", launch(tiles), func() { en.HypervisDP2(b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6) }},
				{"biharmonic", launch(tiles), func() { en.BiharmonicDP3D(b, st.DP, lapDP) }},
				{"euler open+close", split, func() {
					en.EulerStepOn(open, b, st, 10)
					en.EulerStepOn(cls, b, st, 10)
				}},
				{"rhs open+close", split, func() {
					en.ComputeAndApplyRHSOn(open, b, st, st, out, 10)
					en.ComputeAndApplyRHSOn(cls, b, st, st, out, 10)
				}},
				{"dp1 open+close", split, func() {
					en.HypervisDP1On(open, b, st, lapU, lapV, lapT, lapDP)
					en.HypervisDP1On(cls, b, st, lapU, lapV, lapT, lapDP)
				}},
				{"dp2 open+close", split, func() {
					en.HypervisDP2On(open, b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
					en.HypervisDP2On(cls, b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
				}},
			}
			for _, c := range cases {
				if got := testing.AllocsPerRun(10, c.fn); got > c.budget {
					t.Errorf("%v %s workers=%d: %.1f allocs per call, budget %.0f",
						b, c.name, workers, got, c.budget)
				}
			}
		}
	}
}

// TestSerialLaunchesAllocateNothing: on a one-worker engine every Intel
// launch runs its tile inline with a tile body bound when the engine was
// built, so a warm launch — whole or either half of a split — makes no
// heap allocation at all.
func TestSerialLaunchesAllocateNothing(t *testing.T) {
	const ne, nlev, qsize = 2, 8, 2
	m, _, st0 := testSetup(t, ne, nlev, qsize)
	en := tiledEngine(m, nlev, qsize, 1)
	h := dycore.NewHybridCoord(nlev)
	st, out := st0.Clone(), st0.Clone()
	lapU, lapV, lapT, lapDP := out.U, out.V, out.T, out.DP
	var bnd, inn []int
	for le := 0; le < m.NElems(); le++ {
		if le%3 == 0 {
			bnd = append(bnd, le)
		} else {
			inn = append(inn, le)
		}
	}
	open := Subset{Sel: en.CompileSubset(bnd), Phase: Open}
	cls := Subset{Sel: en.CompileSubset(inn), Phase: Close}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"rhs", func() { en.ComputeAndApplyRHSOn(Subset{}, Intel, st, st, out, 10) }},
		{"rhs open+close", func() {
			en.ComputeAndApplyRHSOn(open, Intel, st, st, out, 10)
			en.ComputeAndApplyRHSOn(cls, Intel, st, st, out, 10)
		}},
		{"euler", func() { en.EulerStepOn(Subset{}, Intel, st, 10) }},
		{"euler open+close", func() {
			en.EulerStepOn(open, Intel, st, 10)
			en.EulerStepOn(cls, Intel, st, 10)
		}},
		{"dp1", func() { en.HypervisDP1On(Subset{}, Intel, st, lapU, lapV, lapT, lapDP) }},
		{"dp2", func() { en.HypervisDP2On(Subset{}, Intel, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6) }},
		{"dp2 open+close", func() {
			en.HypervisDP2On(open, Intel, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
			en.HypervisDP2On(cls, Intel, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
		}},
		{"biharmonic", func() { en.BiharmonicDP3D(Intel, st.DP, lapDP) }},
		{"remap", func() { en.VerticalRemap(Intel, h, st) }},
	} {
		c.fn() // warm
		if got := testing.AllocsPerRun(10, c.fn); got != 0 {
			t.Errorf("Intel %s on one worker: %.1f allocs per call, want 0", c.name, got)
		}
	}
}

// TestCPELaunchesAllocateNothing: on a one-worker engine a warm CPE
// launch — every lowering, whole or either half of a split — makes no
// heap allocation: its arguments go in the engine's launch slot, its
// tile body and its worker's CPE body are bound once, its LDM plan is
// built on the first launch, and Spawn reuses a parked crew.
func TestCPELaunchesAllocateNothing(t *testing.T) {
	const ne, nlev, qsize = 2, 16, 2 // nlev/8 = 2: the transposed remap's vector pairs
	m, _, st0 := testSetup(t, ne, nlev, qsize)
	h := dycore.NewHybridCoord(nlev)
	for _, b := range []Backend{OpenACC, Athread} {
		en := tiledEngine(m, nlev, qsize, 1)
		st, out := st0.Clone(), st0.Clone()
		lapU, lapV, lapT, lapDP := out.U, out.V, out.T, out.DP
		var bnd, inn []int
		for le := 0; le < m.NElems(); le++ {
			if le%3 == 0 {
				bnd = append(bnd, le)
			} else {
				inn = append(inn, le)
			}
		}
		open := Subset{Sel: en.CompileSubset(bnd), Phase: Open}
		cls := Subset{Sel: en.CompileSubset(inn), Phase: Close}
		cases := []struct {
			name string
			fn   func()
		}{
			{"rhs", func() { en.ComputeAndApplyRHSOn(Subset{}, b, st, st, out, 10) }},
			{"rhs open+close", func() {
				en.ComputeAndApplyRHSOn(open, b, st, st, out, 10)
				en.ComputeAndApplyRHSOn(cls, b, st, st, out, 10)
			}},
			{"euler", func() { en.EulerStepOn(Subset{}, b, st, 10) }},
			{"euler open+close", func() {
				en.EulerStepOn(open, b, st, 10)
				en.EulerStepOn(cls, b, st, 10)
			}},
			{"dp1", func() { en.HypervisDP1On(Subset{}, b, st, lapU, lapV, lapT, lapDP) }},
			{"dp1 open+close", func() {
				en.HypervisDP1On(open, b, st, lapU, lapV, lapT, lapDP)
				en.HypervisDP1On(cls, b, st, lapU, lapV, lapT, lapDP)
			}},
			{"dp2", func() { en.HypervisDP2On(Subset{}, b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6) }},
			{"dp2 open+close", func() {
				en.HypervisDP2On(open, b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
				en.HypervisDP2On(cls, b, lapU, lapV, lapT, lapDP, st, 10, 1e-6, 1e-6)
			}},
			{"biharmonic", func() { en.BiharmonicDP3D(b, st.DP, lapDP) }},
			{"remap", func() { en.VerticalRemap(b, h, st) }},
		}
		if b == Athread {
			cases = append(cases, struct {
				name string
				fn   func()
			}{"transposed remap", func() { en.VerticalRemapTransposed(h, st) }})
		}
		for _, c := range cases {
			c.fn() // warm
			if got := testing.AllocsPerRun(10, c.fn); got != 0 {
				t.Errorf("%v %s on one worker: %.1f allocs per call, want 0", b, c.name, got)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Conservation and positivity properties, serial and tiled
// ---------------------------------------------------------------------------

// colSum integrates a level-major field over one element column.
func colSum(f []float64, n, nlev, npsq int) float64 {
	var s float64
	for k := 0; k < nlev; k++ {
		s += f[k*npsq+n]
	}
	return s
}

// TestRemapPropertiesSerialAndTiled: for every backend and for both a
// serial and a tiled engine, the vertical remap over randomized deformed
// columns must (a) conserve each column's dry mass (sum of dp) exactly
// to roundoff, (b) conserve each column's tracer mass, and (c) never
// produce a negative tracer mass from non-negative input (the PPM
// monotonicity property the limiter relies on).
func TestRemapPropertiesSerialAndTiled(t *testing.T) {
	const ne, nlev, qsize = 2, 8, 2
	m, _, _ := testSetup(t, ne, nlev, qsize)
	npsq := m.Np * m.Np
	h := dycore.NewHybridCoord(nlev)

	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		mkState := func() *dycore.State {
			cfg := dycore.DefaultConfig(ne)
			cfg.Nlev = nlev
			cfg.Qsize = qsize
			s, err := dycore.NewSolver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := s.NewState()
			s.InitBaroclinicWave(st)
			for ei := range st.DP {
				for i := range st.DP[ei] {
					st.DP[ei][i] *= 1 + 0.2*(rng.Float64()-0.5)
				}
				for i := range st.Qdp[ei] {
					st.Qdp[ei][i] = rng.Float64() * 5 // non-negative tracer mass
				}
			}
			return st
		}
		st0 := mkState()

		for _, workers := range []int{1, 4} {
			en := tiledEngine(m, nlev, qsize, workers)
			for _, b := range Backends {
				st := st0.Clone()
				en.VerticalRemap(b, h, st)
				for ei := range st.DP {
					for n := 0; n < npsq; n++ {
						m0 := colSum(st0.DP[ei], n, nlev, npsq)
						m1 := colSum(st.DP[ei], n, nlev, npsq)
						if d := math.Abs(m1 - m0); d > 1e-8*m0 {
							t.Fatalf("trial %d %v workers=%d elem %d node %d: dry mass %g -> %g",
								trial, b, workers, ei, n, m0, m1)
						}
						for q := 0; q < qsize; q++ {
							off := q * nlev * npsq
							q0 := colSum(st0.Qdp[ei][off:], n, nlev, npsq)
							q1 := colSum(st.Qdp[ei][off:], n, nlev, npsq)
							if d := math.Abs(q1 - q0); d > 1e-8*(1+q0) {
								t.Fatalf("trial %d %v workers=%d elem %d node %d q%d: tracer mass %g -> %g",
									trial, b, workers, ei, n, q, q0, q1)
							}
						}
					}
					for i, v := range st.Qdp[ei] {
						if v < 0 {
							t.Fatalf("trial %d %v workers=%d elem %d: negative tracer mass %g at %d",
								trial, b, workers, ei, v, i)
						}
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Obs integration: per-worker spans and utilization counters
// ---------------------------------------------------------------------------

func TestWorkerUtilizationCounters(t *testing.T) {
	m, _, st0 := testSetup(t, 4, 8, 1)
	en := tiledEngine(m, 8, 1, 4)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	en.Instrument(tr, nil, reg, 0)
	st := st0.Clone()
	en.EulerStep(Athread, st, 10)

	if v := reg.Gauge("exec.dyn.workers").Value(); v != float64(en.Workers()) {
		t.Errorf("exec.dyn.workers gauge = %v, want %d", v, en.Workers())
	}
	if v := reg.Gauge("exec.dyn.tiles").Value(); v != float64(en.Tiles()) {
		t.Errorf("exec.dyn.tiles gauge = %v, want %d", v, en.Tiles())
	}
	var busy int64
	for i := 0; i < en.Tiles(); i++ {
		busy += reg.CounterValue(fmt.Sprintf("exec.dyn.worker_busy_ns.%d", i))
	}
	if busy <= 0 {
		t.Error("no per-worker busy time accumulated")
	}
	if tr.Len() == 0 {
		t.Error("no spans recorded")
	}
	// Reshaping the pool must rebind the gauges, not orphan them.
	en.SetWorkers(2)
	if v := reg.Gauge("exec.dyn.workers").Value(); v != 2 {
		t.Errorf("after SetWorkers(2): workers gauge = %v", v)
	}
}
