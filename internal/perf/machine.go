package perf

import (
	"math"

	"swcam/internal/exec"
)

// CGEfficiency is the sustained fraction of nominal DMA bandwidth the
// dycore's access patterns achieve (strided gathers, short tiles). [cal:
// anchors the 650-elements-per-process weak-scaling point, ledger row
// fig8.full.pflops.]
const CGEfficiency = 0.35

// CGFixedElems expresses the fixed per-step cost of one core group
// (kernel launches, DSS synchronization, MPE serial glue) in units of
// per-element work: the paper's own per-CG throughputs (derived from the
// PFlops labels of Figure 7) saturate like e/(e+e0). [cal: ledger rows
// fig7.*.pflops_*]
const CGFixedElems = 15.0

// NetContention models endpoint/backplane contention as the job grows
// toward the full machine: effective per-CG bandwidth divides by
// (1 + NetContention * nprocs/TotalCGs). [cal: Figure 7's efficiency
// collapse at 131,072 processes, ledger rows fig7.*.eff.]
const NetContention = 0.5

// ImbalanceRate models per-doubling load-imbalance and OS-jitter losses
// beyond one supernode, stronger for small per-process loads:
// loss = ImbalanceRate * log2(nprocs/512) * (48/e)^0.25. [cal: Figure
// 8's weak-scaling efficiencies at 131,072 processes, ledger rows
// fig8.eff*.]
const ImbalanceRate = 0.0146

// HOMMEConfig describes a dycore-only workload (the HOMME scaling runs
// of Figures 7-8 use nlev=128).
type HOMMEConfig struct {
	Ne        int
	Np        int
	Nlev      int
	Qsize     int
	RemapFreq int
	Dt        float64 // dynamics step, seconds of simulated time
}

// DefaultHOMMEConfig returns the paper's dycore benchmark shape for a
// given resolution.
func DefaultHOMMEConfig(ne int) HOMMEConfig {
	return HOMMEConfig{Ne: ne, Np: 4, Nlev: 128, Qsize: 4, RemapFreq: 2,
		Dt: 300 * 30 / float64(ne)}
}

// NElems returns the total element count.
func (c HOMMEConfig) NElems() int { return 6 * c.Ne * c.Ne }

// FlopsPerElemStep returns modeled double-precision operations per
// element per dynamics step: two RHS stages, one two-pass
// hyperviscosity, two tracer stages, and the amortized remap.
func (c HOMMEConfig) FlopsPerElemStep() float64 {
	return 2*float64(exec.RHSFlops(c.Np, c.Nlev)) +
		float64(exec.Hypervis1Flops(c.Np, c.Nlev)) +
		float64(exec.Hypervis2Flops(c.Np, c.Nlev)) +
		2*float64(c.Qsize)*float64(exec.EulerStageFlops(c.Np, c.Nlev)) +
		float64(exec.RemapFlops(c.Np, c.Nlev, c.Qsize))/float64(c.RemapFreq)
}

// BytesPerElemStep returns the compulsory main-memory traffic per
// element per step (Athread backend: every field touched once per pass).
func (c HOMMEConfig) BytesPerElemStep() float64 {
	return 2*float64(exec.RHSBytes(c.Np, c.Nlev)) +
		2*float64(exec.HypervisBytes(c.Np, c.Nlev)) +
		2*float64(exec.EulerBytes(c.Np, c.Nlev, c.Qsize)) +
		float64(exec.RemapBytes(c.Np, c.Nlev, c.Qsize))/float64(c.RemapFreq)
}

// exchangesPerStep is the halo-exchange count of one dynamics step: two
// RHS stages, two in the hyperviscosity pair, two tracer stages (the
// paper's "3 sub-cycles edge packing/unpacking" per RK loop maps to the
// same count for our 2-stage RK).
const exchangesPerStep = 6

// perElemTime is the roofline time for one element's dynamics step on
// one core group (Athread backend).
func (c HOMMEConfig) perElemTime() float64 {
	compute := c.FlopsPerElemStep() / (64 * CPEVectorRate * 0.75)
	memory := c.BytesPerElemStep() / (CGMemBW * CGEfficiency)
	return math.Max(compute, memory)
}

// CGStepTime returns the modeled compute time of one process (core
// group) advancing elemsPerProc elements one dynamics step on the
// Athread backend, including the fixed per-step cost.
func (c HOMMEConfig) CGStepTime(elemsPerProc float64) float64 {
	return (elemsPerProc + CGFixedElems) * c.perElemTime()
}

// haloBytes estimates the per-exchange message volume of one process
// owning elemsPerProc elements on an SFC partition: the patch perimeter
// in shared GLL nodes, times levels, fields, and 8 bytes.
func (c HOMMEConfig) haloBytes(elemsPerProc float64, fields int) float64 {
	if elemsPerProc < 1 {
		elemsPerProc = 1
	}
	perimElems := 4 * math.Sqrt(elemsPerProc)
	sharedNodes := perimElems*float64(c.Np-1) + 4
	return sharedNodes * float64(c.Nlev) * float64(fields) * 8
}

// imbalanceLoss returns the fractional step-time inflation from load
// imbalance and jitter at scale.
func imbalanceLoss(elems float64, nprocs int) float64 {
	if nprocs <= 512 {
		return 0
	}
	if elems < 1 {
		elems = 1
	}
	return ImbalanceRate * math.Log2(float64(nprocs)/512) * math.Pow(48/elems, 0.25)
}

// commTime models the per-step halo-exchange cost of one process at the
// given scale, including network contention near full machine.
func (c HOMMEConfig) commTime(elems float64, nprocs int) float64 {
	local := nprocs <= SupernodeCGs
	avgFields := (4*4 + 2*c.Qsize) / 6
	if avgFields < 1 {
		avgFields = 1
	}
	bytesPer := c.haloBytes(elems, avgFields)
	bw := NetBWPerCG / (1 + NetContention*float64(nprocs)/float64(TotalCGs))
	const neighbors = 8
	perExchange := float64(neighbors)*pick(local, NetLatencyLocal, NetLatency) + bytesPer/bw
	return exchangesPerStep * perExchange
}

// StepTime returns the modeled wall-clock of one dynamics step at the
// given process count, with or without the §7.6
// computation/communication overlap, plus the step's total flops.
func (c HOMMEConfig) StepTime(nprocs int, overlap bool) (seconds, flops float64) {
	elems := float64(c.NElems()) / float64(nprocs)
	compute := c.CGStepTime(elems)
	comm := c.commTime(elems, nprocs)

	var step float64
	if overlap {
		// Boundary elements compute first; inner compute hides the
		// messages (§7.6). The hideable window is the inner fraction.
		perim := math.Min(1, 4*math.Sqrt(elems)/math.Max(elems, 1))
		boundary := compute * perim
		inner := compute - boundary
		step = boundary + math.Max(inner, comm)
	} else {
		step = compute + comm
	}
	step *= 1 + imbalanceLoss(elems, nprocs)
	return step, float64(c.NElems()) * c.FlopsPerElemStep()
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// PFlops returns the modeled sustained performance at nprocs processes.
func (c HOMMEConfig) PFlops(nprocs int, overlap bool) float64 {
	t, f := c.StepTime(nprocs, overlap)
	return f / t / 1e15
}

// Efficiency returns parallel efficiency relative to a baseline process
// count: eff = (T0 * N0) / (T * N).
func (c HOMMEConfig) Efficiency(nprocs, baseProcs int, overlap bool) float64 {
	t0, _ := c.StepTime(baseProcs, overlap)
	t, _ := c.StepTime(nprocs, overlap)
	return t0 * float64(baseProcs) / (t * float64(nprocs))
}

// WeakPoint is one weak-scaling measurement.
type WeakPoint struct {
	ElemsPerProc int
	NProcs       int
	PFlops       float64
	StepTime     float64
}

// WeakScaling evaluates a fixed per-process load at a process count.
func WeakScaling(elemsPerProc, nprocs, nlev, qsize int) WeakPoint {
	cfg := HOMMEConfig{Ne: 1, Np: 4, Nlev: nlev, Qsize: qsize, RemapFreq: 2, Dt: 1}
	e := float64(elemsPerProc)
	compute := cfg.CGStepTime(e)
	comm := cfg.commTime(e, nprocs)
	perim := math.Min(1, 4*math.Sqrt(e)/e)
	boundary := compute * perim
	step := boundary + math.Max(compute-boundary, comm)
	step *= 1 + imbalanceLoss(e, nprocs)
	flops := e * cfg.FlopsPerElemStep() * float64(nprocs)
	return WeakPoint{ElemsPerProc: elemsPerProc, NProcs: nprocs,
		PFlops: flops / step / 1e15, StepTime: step}
}

// WeakEfficiency is the weak-scaling parallel efficiency of a point
// relative to the same per-process load on baseProcs processes.
func WeakEfficiency(elemsPerProc, nprocs, baseProcs, nlev, qsize int) float64 {
	base := WeakScaling(elemsPerProc, baseProcs, nlev, qsize)
	at := WeakScaling(elemsPerProc, nprocs, nlev, qsize)
	return base.StepTime / at.StepTime
}

// TaihuLight's published Linpack run on the full machine: sustained
// PFlops and system efficiency. The power model's system overhead is
// fitted to it (ledger row power.linpack). [spec, cal]
const (
	linpackPFlops       = 93.0
	linpackFlopsPerWatt = 6.06e9
)

// PowerEfficiency returns the modeled system-level GFlops/W at a given
// sustained PFlops on nprocs core groups: sustained flops over the
// powered-on fraction of the machine (chips draw near-constant power
// regardless of utilization; system overhead scales chip power by the
// factor that reproduces the Linpack run's efficiency).
func PowerEfficiency(pflops float64, nprocs int) float64 {
	chips := float64(nprocs) / 4 // 4 CGs per chip
	// System power per chip: the Linpack run's 15.35 MW over 40,960
	// chips -> 374.7 W per chip (chip alone: 306 W).
	const systemWattsPerChip = linpackPFlops * 1e15 / linpackFlopsPerWatt / 40960
	return pflops * 1e15 / (chips * systemWattsPerChip) / 1e9
}
