// Instrumented entry points for the six Table-1 kernels. Every public
// kernel method funnels through kernelProbe, which is a single nil test
// when observation is off — the default — and records a wall-clock span
// plus the kernel's architectural events when an obs.Tracer /
// obs.KernelTable is attached. Keeping the probe here, above the
// backend dispatch, means one instrumentation point covers all three
// backends per kernel.
package exec

import (
	"fmt"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/obs"
)

// Instrument attaches the observability subsystem to this engine: spans
// go to tr (pid = rank; per-tile spans on tid = worker slot + 1),
// per-kernel attribution to kt, and per-worker utilization counters to
// reg (exec.dyn.worker_busy_ns.<slot>, plus the exec.dyn.workers and
// exec.dyn.tiles gauges). Any sink may be nil. Engines are instrumented
// per rank, so concurrent ranks record to shared, goroutine-safe sinks
// without coordination here.
func (en *Engine) Instrument(tr *obs.Tracer, kt *obs.KernelTable, reg *obs.Registry, rank int) {
	en.obsTr, en.obsKT, en.obsReg, en.obsRank = tr, kt, reg, rank
	en.bindObsRegistry()
}

// bindObsRegistry (re)publishes the pool-shape gauges and binds the
// per-worker busy counters; called from Instrument and again whenever
// SetWorkers reshapes the pool.
func (en *Engine) bindObsRegistry() {
	en.busyNs = nil
	if en.obsReg == nil {
		return
	}
	en.obsReg.Gauge("exec.dyn.workers").Set(float64(en.workers))
	en.obsReg.Gauge("exec.dyn.tiles").Set(float64(en.Tiles()))
	// One busy counter per worker: subset launches (subset.go) can run
	// more tiles than the aligned Whole decomposition, up to pool size.
	en.busyNs = make([]*obs.Counter, en.workers)
	for i := range en.busyNs {
		en.busyNs[i] = en.obsReg.Counter(fmt.Sprintf("exec.dyn.worker_busy_ns.%d", i))
	}
}

// obsNoop avoids a closure allocation on the uninstrumented path.
var obsNoop = func(Cost) {}

// kernelProbe opens a span and returns the completion func the kernel
// calls with its cost record; a split launch records under the kernel
// name plus the subset's suffix, built only when observation is on. It
// also publishes the kernel name and backend for the per-tile worker
// spans (kernel methods run one at a time per engine, and the fields are
// written before any tile goroutine launches, so tiles read them
// race-free).
func (en *Engine) kernelProbe(name string, sub Subset, b Backend) func(Cost) {
	if en.obsTr == nil && en.obsKT == nil {
		return obsNoop
	}
	name += sub.suffix()
	en.curKernel, en.curBackend = "exec."+name, b.String()
	sp := en.obsTr.Begin(en.obsRank, "exec."+name, b.String())
	kt := en.obsKT
	start := time.Now()
	return func(c Cost) {
		ns := time.Since(start).Nanoseconds()
		sp.End()
		kt.Record(name, b.String(), ns, c.Flops(), c.MemBytes, c.DMAOps, c.RegMsgs)
	}
}

// ComputeAndApplyRHS runs the compute_and_apply_rhs kernel (Table 1 row
// 1) under the chosen backend: out = base + dt * RHS(cur) for every
// local element. The caller applies the DSS afterwards.
func (en *Engine) ComputeAndApplyRHS(b Backend, cur, base, out *dycore.State, dt float64) Cost {
	return en.ComputeAndApplyRHSOn(Subset{}, b, cur, base, out, dt)
}

// ComputeAndApplyRHSOn is ComputeAndApplyRHS restricted to an element
// subset, with split-phase cost accounting (subset.go). Split launches
// record as "<kernel>.boundary" / "<kernel>.inner" KernelTable rows;
// the Open row carries wall time only, the Close row the whole
// kernel's deferred cost.
func (en *Engine) ComputeAndApplyRHSOn(sub Subset, b Backend, cur, base, out *dycore.State, dt float64) Cost {
	done := en.kernelProbe("compute_and_apply_rhs", sub, b)
	c := en.computeAndApplyRHS(sub, b, cur, base, out, dt)
	done(c)
	return c
}

// EulerStep runs one explicit euler_step stage (Table 1 row 2: all
// tracers, all local elements) under the chosen backend; qdp is
// advanced in place, exactly like the dycore serial path. The caller
// handles DSS/limiting between stages.
func (en *Engine) EulerStep(b Backend, st *dycore.State, dt float64) Cost {
	return en.EulerStepOn(Subset{}, b, st, dt)
}

// EulerStepOn is EulerStep restricted to an element subset, with
// split-phase cost accounting (subset.go).
func (en *Engine) EulerStepOn(sub Subset, b Backend, st *dycore.State, dt float64) Cost {
	done := en.kernelProbe("euler_step", sub, b)
	c := en.eulerStep(sub, b, st, dt)
	done(c)
	return c
}

// VerticalRemap runs the vertical_remap kernel (Table 1 row 3) under
// the chosen backend, remapping every local element's state back to the
// reference hybrid grid.
func (en *Engine) VerticalRemap(b Backend, h *dycore.HybridCoord, st *dycore.State) Cost {
	done := en.kernelProbe("vertical_remap", Subset{}, b)
	c := en.verticalRemap(b, h, st)
	done(c)
	return c
}

// HypervisDP1 runs the first Laplacian pass (Table 1 row 4) under the
// chosen backend: lap* = laplace(state fields), element-local. The
// caller DSSes the outputs before the second pass.
func (en *Engine) HypervisDP1(b Backend, st *dycore.State, lapU, lapV, lapT, lapDP [][]float64) Cost {
	return en.HypervisDP1On(Subset{}, b, st, lapU, lapV, lapT, lapDP)
}

// HypervisDP1On is HypervisDP1 restricted to an element subset, with
// split-phase cost accounting (subset.go).
func (en *Engine) HypervisDP1On(sub Subset, b Backend, st *dycore.State, lapU, lapV, lapT, lapDP [][]float64) Cost {
	done := en.kernelProbe("hypervis_dp1", sub, b)
	c := en.hypervisDP1(sub, b, st, lapU, lapV, lapT, lapDP)
	done(c)
	return c
}

// HypervisDP2 runs the second pass and applies the update (Table 1 row
// 5): field -= dt*nu*laplace(DSS'd first pass).
func (en *Engine) HypervisDP2(b Backend, lapU, lapV, lapT, lapDP [][]float64,
	st *dycore.State, dt, nuV, nuS float64) Cost {
	return en.HypervisDP2On(Subset{}, b, lapU, lapV, lapT, lapDP, st, dt, nuV, nuS)
}

// HypervisDP2On is HypervisDP2 restricted to an element subset, with
// split-phase cost accounting (subset.go).
func (en *Engine) HypervisDP2On(sub Subset, b Backend, lapU, lapV, lapT, lapDP [][]float64,
	st *dycore.State, dt, nuV, nuS float64) Cost {
	done := en.kernelProbe("hypervis_dp2", sub, b)
	c := en.hypervisDP2(sub, b, lapU, lapV, lapT, lapDP, st, dt, nuV, nuS)
	done(c)
	return c
}

// BiharmonicDP3D runs the weak biharmonic of dp3d (Table 1 row 6): one
// Laplacian pass per call (the caller DSSes and calls again for grad^4).
func (en *Engine) BiharmonicDP3D(b Backend, in, out [][]float64) Cost {
	done := en.kernelProbe("biharmonic_dp3d", Subset{}, b)
	c := en.biharmonicDP3D(b, in, out)
	done(c)
	return c
}

// VerticalRemapTransposed is the §7.5 in-fabric transposition variant
// of the Athread vertical remap (see remap_transpose.go for the full
// design notes); instrumented like the Table-1 kernels so the ablation
// shows up in traces too.
func (en *Engine) VerticalRemapTransposed(h *dycore.HybridCoord, st *dycore.State) Cost {
	done := en.kernelProbe("vertical_remap_transposed", Subset{}, Athread)
	c := en.verticalRemapTransposed(h, st)
	done(c)
	return c
}
