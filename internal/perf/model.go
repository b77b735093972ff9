package perf

import (
	"math"

	"swcam/internal/exec"
)

// KernelTime converts one kernel execution's cost record into modeled
// seconds on the backend that produced it — a roofline: the kernel takes
// the longer of its compute time and its memory time, plus fixed
// launch/issue overheads.
func KernelTime(c exec.Cost) float64 {
	switch c.Backend {
	case exec.Intel:
		return serialTime(c, IntelRate, IntelMemBW)
	case exec.OpenACC:
		return cpeTime(c, ACCRegionOverhead, ACCMemEff)
	case exec.Athread:
		return cpeTime(c, SpawnOverhead, AthMemEff)
	}
	panic("perf: unknown backend")
}

// MPETime prices a serial (Intel) cost on the SW26010 management core:
// the paper's MPE-only port runs the unmodified serial code. A CPE cost
// has no MPE price, so it panics, as KernelTime does on an unknown backend.
func MPETime(c exec.Cost) float64 {
	if c.Backend != exec.Intel {
		panic("perf: MPETime of a " + c.Backend.String() + " cost")
	}
	return serialTime(c, MPERate, MPEMemBW)
}

func serialTime(c exec.Cost, rate, bw float64) float64 {
	compute := float64(c.Flops()) / rate
	memory := float64(c.MemBytes) / bw
	return math.Max(compute, memory)
}

// cpeTime models a CPE-cluster kernel: the makespan is set by the
// busiest CPE's arithmetic (at the scalar or vector rate according to
// its mix), the core group's shared memory bandwidth, and the DMA issue
// costs, overlapped against each other (the hardware overlaps DMA with
// compute); register communication and the region launch are serial
// additions.
// ACCMemEff is the sustained bandwidth fraction of directive-generated
// DMA: smaller, unaligned, un-batched transfers. [cal: places the
// OpenACC euler_step near the paper's 1.5x-over-Intel and the OpenACC
// rhs below Intel, as in Table 1.]
const ACCMemEff = 0.15

// AthMemEff is the sustained bandwidth fraction of the Athread
// backend's large tiled transfers — close to the DMA-benchmark ceiling.
// (The whole-machine scaling model uses the more conservative
// CGEfficiency, which folds in remap gathers and halo packing.) [cal]
const AthMemEff = 0.55

func cpeTime(c exec.Cost, launch, memEff float64) float64 {
	// Arithmetic time of the busiest CPE, splitting its flops by the
	// aggregate scalar/vector mix.
	var compute float64
	if tot := c.Flops(); tot > 0 {
		fv := float64(c.FlopsVector) / float64(tot)
		per := float64(c.MaxCPEFlops)
		compute = per*fv/CPEVectorRate + per*(1-fv)/CPERate
	}
	// Memory: all DMA traffic shares the CG's bandwidth; issue costs
	// are paid per transfer but spread across the 64 engines.
	memory := float64(c.MemBytes)/(CGMemBW*memEff) + float64(c.DMAOps)/64*DMAIssue
	// Register messages serialize along dependency chains within the
	// mesh; charge them at chain depth (messages / 64 CPEs ~ per-CPE
	// share) — the scans' pipelining is already reflected in their
	// being counted per CPE.
	reg := float64(c.RegMsgs) / 64 * RegCommLatency
	return float64(c.Launches)*launch + math.Max(compute, memory) + reg
}
