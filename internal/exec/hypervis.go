package exec

import (
	"swcam/internal/dycore"
)

// The hyperviscosity and biharmonic kernels are written once as
// single-source slab specs (kernel.go: hypervisDP1Spec,
// hypervisDP2Spec, biharmonicDP3DSpec) and lowered per backend; the
// functions here only bind state rows and hoisted coefficients to the
// spec, in the engine's one binding slot (kernel methods do not run
// concurrently on an engine). The exported, instrumented entry points
// are in instrument.go.

// hypervisDP1 runs the first Laplacian pass over the selected element
// subset: (lapU, lapV) = vector Laplacian of (u, v); lapT, lapDP =
// scalar Laplacians of T, dp.
func (en *Engine) hypervisDP1(sub Subset, b Backend, st *dycore.State, lapU, lapV, lapT, lapDP [][]float64) Cost {
	en.beginLaunch(sub)
	en.bind = slabBind{
		in:  [4][][]float64{st.U, st.V, st.T, st.DP},
		out: [4][][]float64{lapU, lapV, lapT, lapDP},
	}
	return en.lowerSlab(&hypervisDP1Spec, sub, b, &en.bind)
}

// hypervisDP2 runs the second pass + update over the selected element
// subset: field -= dt*nu * laplace(DSS'd first pass), with the
// momentum (nuV) and scalar (nuS) coefficients hoisted to launch scope
// here — every lowering sees them as ready-made slab coefficients.
func (en *Engine) hypervisDP2(sub Subset, b Backend, lapU, lapV, lapT, lapDP [][]float64,
	st *dycore.State, dt, nuV, nuS float64) Cost {
	en.beginLaunch(sub)
	en.bind = slabBind{
		in:   [4][][]float64{lapU, lapV, lapT, lapDP},
		out:  [4][][]float64{st.U, st.V, st.T, st.DP},
		coef: [2]float64{dt * nuV, dt * nuS},
	}
	return en.lowerSlab(&hypervisDP2Spec, sub, b, &en.bind)
}

// biharmonicDP3D runs the weak biharmonic of dp3d as a Whole launch
// (it is not part of the boundary/inner split).
func (en *Engine) biharmonicDP3D(b Backend, in, out [][]float64) Cost {
	en.beginLaunch(Subset{})
	en.bind = slabBind{
		in:  [4][][]float64{in},
		out: [4][][]float64{out},
	}
	return en.lowerSlab(&biharmonicDP3DSpec, Subset{}, b, &en.bind)
}
