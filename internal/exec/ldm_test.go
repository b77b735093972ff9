package exec

import (
	"errors"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/sw"
)

// TestLDMPlanOverflowPanicsAtFirstLaunch: an engine whose shape does not
// fit a lowering's LDM plan still constructs and runs the other
// backends; the lowering's first launch panics with the overflow,
// naming the buffer that does not fit.
func TestLDMPlanOverflowPanicsAtFirstLaunch(t *testing.T) {
	// The OpenACC euler_step stages whole columns of u, v and one tracer:
	// 3·200·16 values, so the tracer column is the one that overflows.
	const nlev = 200
	_, en, st := testSetup(t, 2, nlev, 1)
	en.EulerStep(Intel, st, 10)
	en.EulerStep(Athread, st, 10) // nlev/8 levels per CPE fit
	defer func() {
		err, _ := recover().(error)
		var ov *sw.ErrLDMOverflow
		if !errors.As(err, &ov) || ov.Name != "qdp" {
			t.Fatalf("first OpenACC launch: recovered %v, want an LDM overflow naming \"qdp\"", err)
		}
		if en.plans.eulerACC != nil {
			t.Fatal("a plan that overflowed was kept")
		}
	}()
	en.EulerStep(OpenACC, st, 10)
}

// ldmKernels are the CPE kernels, each run once on an engine over st
// (out takes rhs's output and the Laplacians) with its Cost returned.
var ldmKernels = []struct {
	name string
	run  func(en *Engine, b Backend, st, out *dycore.State, h *dycore.HybridCoord) Cost
}{
	{"rhs", func(en *Engine, b Backend, st, out *dycore.State, _ *dycore.HybridCoord) Cost {
		return en.ComputeAndApplyRHS(b, st, st, out, 10)
	}},
	{"euler", func(en *Engine, b Backend, st, _ *dycore.State, _ *dycore.HybridCoord) Cost {
		return en.EulerStep(b, st, 10)
	}},
	{"dp1", func(en *Engine, b Backend, st, l *dycore.State, _ *dycore.HybridCoord) Cost {
		return en.HypervisDP1(b, st, l.U, l.V, l.T, l.DP)
	}},
	{"dp2", func(en *Engine, b Backend, st, l *dycore.State, _ *dycore.HybridCoord) Cost {
		return en.HypervisDP2(b, l.U, l.V, l.T, l.DP, st, 10, 1e-6, 1e-6)
	}},
	{"biharmonic", func(en *Engine, b Backend, st, l *dycore.State, _ *dycore.HybridCoord) Cost {
		return en.BiharmonicDP3D(b, st.DP, l.DP)
	}},
	{"remap", func(en *Engine, b Backend, st, _ *dycore.State, h *dycore.HybridCoord) Cost {
		return en.VerticalRemap(b, h, st)
	}},
	{"transposed remap", func(en *Engine, b Backend, st, _ *dycore.State, h *dycore.HybridCoord) Cost {
		if b != Athread {
			return Cost{}
		}
		return en.VerticalRemapTransposed(h, st)
	}},
}

// TestLDMPeakIsTheKernelsOwn: Cost.LDMPeak is the working set of the
// kernel that reports it, so every kernel reads the same peak after any
// other kernel on the same engine as on a fresh one.
func TestLDMPeakIsTheKernelsOwn(t *testing.T) {
	const nlev = 16
	m, _, st0 := testSetup(t, 2, nlev, 1)
	h := dycore.NewHybridCoord(nlev)
	for _, b := range []Backend{OpenACC, Athread} {
		run := func(kernels ...int) Cost {
			en := tiledEngine(m, nlev, 1, 1)
			st, out := st0.Clone(), st0.Clone()
			var c Cost
			for _, k := range kernels {
				c = ldmKernels[k].run(en, b, st, out, h)
			}
			return c
		}
		for k, kk := range ldmKernels {
			if kk.name == "transposed remap" && b != Athread {
				continue
			}
			fresh := run(k).LDMPeak
			if fresh <= 0 || fresh > sw.LDMBytes {
				t.Fatalf("%v %s: fresh LDMPeak %d", b, kk.name, fresh)
			}
			for j := range ldmKernels {
				if got := run(j, k).LDMPeak; got != fresh {
					t.Errorf("%v %s after %s: LDMPeak %d, on a fresh engine %d",
						b, kk.name, ldmKernels[j].name, got, fresh)
				}
			}
		}
	}
}
