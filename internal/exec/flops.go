package exec

// Analytic double-precision operation counts for the dycore kernels, per
// element, derived by counting the arithmetic in the dycore slab
// operators (the paper's first flop-measurement method, §8.1.1: manual
// instruction counting). The CPE backends count the same formulas as
// they execute, so serial and parallel totals agree by construction.

// gradFlops: covariant derivative (np*np nodes x 2 axes x np MACs) plus
// the 2x2 transform (6 ops) and radius scale (2 ops) per node.
func gradFlops(np int) int64 {
	npsq := int64(np * np)
	return npsq*int64(4*np) + npsq*8
}

// divFlops: contravariant transform + metdet scale (8 ops), two
// derivative dots (4*np), combine and normalize (4 ops) per node.
func divFlops(np int) int64 {
	npsq := int64(np * np)
	return npsq*8 + npsq*int64(4*np) + npsq*4
}

// vortFlops mirrors divFlops (covariant transform + curl combine).
func vortFlops(np int) int64 { return divFlops(np) }

// lapFlops = gradient + divergence.
func lapFlops(np int) int64 { return gradFlops(np) + divFlops(np) }

// vecLapFlops = div + vort + 2 gradients + combine (2 ops/node).
func vecLapFlops(np int) int64 {
	return divFlops(np) + vortFlops(np) + 2*gradFlops(np) + int64(2*np*np)
}

// axpyFlops: the damped-update primitive (dst -= coef*src) — one
// multiply and one subtract per node, with the coefficient product
// hoisted to launch scope and therefore NOT part of the per-point
// work. This is THE attribution for the hyperviscosity update; every
// backend charges it via the slabOps primitive (kernel.go), which is
// what fixed the historical 12·np² (OpenACC) vs 8·np² (Athread) vs
// 16·np² (serial analytic) divergence for the 4-field update.
func axpyFlops(np int) int64 { return int64(2 * np * np) }

// eulerStageFlops: per element per tracer per level — flux build
// (2 muls/node), divergence, update (2 ops/node).
func eulerStageFlops(np, nlev int) int64 {
	perLevel := int64(2*np*np) + divFlops(np) + int64(2*np*np)
	return perLevel * int64(nlev)
}

// rhsFlops: per element — scans (pressure ~3/level/node, geopotential
// ~5, omega ~2), mass-flux divergence, three gradients + vorticity per
// level, pointwise tendency algebra (~30 ops/node/level), apply (8).
func rhsFlops(np, nlev int) int64 {
	npsq := int64(np * np)
	nl := int64(nlev)
	scans := npsq * nl * (3 + 5 + 2)
	perLevel := int64(2)*npsq + divFlops(np) + 3*gradFlops(np) + vortFlops(np) + npsq*30
	apply := npsq * nl * 8
	return scans + perLevel*nl + apply
}

// The dissipation-kernel totals are no longer written out by hand:
// they are derived by running each kernel's single-source body
// (kernel.go) against the counting primitives above, so the analytic
// serial count, the OpenACC per-primitive charges, and this model
// formula cannot drift apart — there is exactly one body to count.

// hypervis1Flops: first Laplacian pass per element (vector + 2
// scalars), derived from hypervisDP1Spec.
func hypervis1Flops(np, nlev int) int64 {
	return hypervisDP1Spec.levelFlops(np) * int64(nlev)
}

// hypervis2Flops: second pass + update per element (vector + 2 scalar
// Laplacians + 4 axpy updates), derived from hypervisDP2Spec. The
// historical hand-written formula charged 16·np²/level for the update;
// the primitive-derived count is 4·axpyFlops = 8·np², matching what
// the CPE backends execute.
func hypervis2Flops(np, nlev int) int64 {
	return hypervisDP2Spec.levelFlops(np) * int64(nlev)
}

// remapFlops: per element — PPM reconstruction ~25 ops/cell, cumulative
// and interpolation ~15 ops/cell, per remapped field (3 + qsize), per
// node column.
func remapFlops(np, nlev, qsize int) int64 {
	perColumnField := int64(nlev) * 40
	return int64(np*np) * perColumnField * int64(3+qsize)
}

// Compulsory main-memory traffic (bytes) per element for the serial
// backends: each input read once, each output written once.
func eulerBytes(np, nlev, qsize int) int64 {
	npsq := int64(np * np)
	nl := int64(nlev)
	// read u,v + read/write qdp per tracer.
	return 8 * (2*npsq*nl + int64(qsize)*2*npsq*nl)
}

func rhsBytes(np, nlev int) int64 {
	npsq := int64(np * np)
	nl := int64(nlev)
	// read u,v,T,dp + phis + base(4) + write out(4).
	return 8 * (npsq*nl*4 + npsq + npsq*nl*4 + npsq*nl*4)
}

func hypervisBytes(np, nlev int) int64 {
	npsq := int64(np * np)
	nl := int64(nlev)
	// read 4 fields, write 4 laplacians (pass 1) or update 4 (pass 2).
	return 8 * (npsq * nl * 8)
}

func remapBytes(np, nlev, qsize int) int64 {
	npsq := int64(np * np)
	nl := int64(nlev)
	return 8 * (npsq * nl * 2 * int64(4+qsize))
}

// Exported aliases for the analytic per-element operation counts, used
// by the internal/perf machine model to predict kernel times at scales
// the functional simulator cannot run.

// EulerStageFlops returns flops per element per tracer for one
// euler_step stage.
func EulerStageFlops(np, nlev int) int64 { return eulerStageFlops(np, nlev) }

// RHSFlops returns flops per element for compute_and_apply_rhs.
func RHSFlops(np, nlev int) int64 { return rhsFlops(np, nlev) }

// Hypervis1Flops returns flops per element for the first Laplacian pass.
func Hypervis1Flops(np, nlev int) int64 { return hypervis1Flops(np, nlev) }

// Hypervis2Flops returns flops per element for the second pass + update.
func Hypervis2Flops(np, nlev int) int64 { return hypervis2Flops(np, nlev) }

// RemapFlops returns flops per element for the vertical remap.
func RemapFlops(np, nlev, qsize int) int64 { return remapFlops(np, nlev, qsize) }

// EulerBytes returns compulsory bytes per element for one euler stage.
func EulerBytes(np, nlev, qsize int) int64 { return eulerBytes(np, nlev, qsize) }

// RHSBytes returns compulsory bytes per element for compute_and_apply_rhs.
func RHSBytes(np, nlev int) int64 { return rhsBytes(np, nlev) }

// HypervisBytes returns compulsory bytes per element per hypervis pass.
func HypervisBytes(np, nlev int) int64 { return hypervisBytes(np, nlev) }

// RemapBytes returns compulsory bytes per element for the remap.
func RemapBytes(np, nlev, qsize int) int64 { return remapBytes(np, nlev, qsize) }
