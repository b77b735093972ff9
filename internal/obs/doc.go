// Package obs is the unified observability layer of the model: every
// headline result of the paper — Table 1 per-kernel speedups, Figure 5
// backend attribution, Figure 6 SYPD, Figures 7-8 scaling — is a
// measurement, and this package is where the repository's measurements
// live. It replaces the previously scattered, mutually incompatible
// instrumentation (sw.PerfCounter, mpirt.Stats, exec.Cost accounting)
// with three cooperating pieces:
//
//   - Tracer / Span (trace.go): a low-overhead, goroutine-safe wall-clock
//     span recorder with Chrome about://tracing JSON export, so a full
//     camsw step can be inspected kernel-by-kernel and rank-by-rank in a
//     browser. Ranks map to trace processes (pid), so the per-rank
//     timelines line up the way the paper's per-process timing plots do.
//
//   - Registry / Counter / Gauge / Histogram (registry.go): a metrics
//     registry unifying the existing counters — SW DMA bytes, LDM
//     high-water marks, register-communication messages, mpirt send/recv
//     bytes, halo pack/unpack volumes, exec flop accounting — behind one
//     interface with a deterministic text and JSON dump and cross-rank
//     merging.
//
//   - KernelTable / StepReport (report.go): the aggregation layer.
//     KernelTable accumulates per-(kernel, backend) wall time and
//     architectural events; StepReport turns a run into per-kernel time
//     shares, SYPD, PFlops and the communication/computation overlap
//     ratio. The per-kernel counts are pinned per backend by
//     internal/core's TestBench9ConfigGoldens; host timings are measured
//     by the reference benchmark (go run ./benchmark).
//
// # Nil safety
//
// Every type in this package is nil-safe: calling any method on a nil
// *Tracer, *Registry, *Counter, *Gauge, *Histogram or *KernelTable is a
// cheap no-op (a single pointer test, no time.Now call, no allocation).
// Instrumented packages therefore carry bare pointers that default to
// nil, and the whole subsystem costs near-zero when observation is off —
// the property the <2% bench_test.go regression budget demands.
//
// # Span taxonomy
//
// Span names are dot-separated, lowercase, prefixed with the owning
// package: exec.compute_and_apply_rhs, exec.euler_step,
// exec.vertical_remap, exec.hypervis_dp1, exec.hypervis_dp2,
// exec.biharmonic_dp3d (category = backend name); halo.dss_original,
// halo.dss_overlap (category "comm"); mpirt.allreduce, mpirt.reduce,
// mpirt.bcast, mpirt.gather, mpirt.barrier (category "comm");
// core.dynamics, core.physics, core.step, core.checkpoint,
// core.rollback (category "model"). Metric names follow the same
// convention (see DESIGN.md, "Observability").
package obs
