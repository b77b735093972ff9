// Package perf converts the architectural event counts produced by the
// execution backends (internal/exec) and the communication runtime
// (internal/halo, internal/mpirt) into modeled wall-clock time, and
// generates every scaling experiment of the paper's evaluation (Figures
// 6-8, Tables 1 and 3) from first-principles compute and communication
// volumes on a calibrated model of the Sunway TaihuLight.
//
// Absolute seconds off the real hardware are not meaningful; the model's
// purpose is to reproduce the *shape* of the paper's results — which
// backend wins each kernel and by roughly what factor, how efficiency
// falls with strong scaling and rises with per-process load, where the
// FV3/MPAS crossovers sit. Every constant below carries its provenance.
package perf

// SW26010 and TaihuLight machine constants.
//
// Provenance legend:
//
//	[spec]  published SW26010 / TaihuLight specification (paper §5, Fu et
//	        al. 2016 "The Sunway TaihuLight supercomputer").
//	[lit]   measured values from the Sunway micro-benchmarking literature
//	        (Xu et al., "Benchmarking SW26010", and the paper's own
//	        observations, e.g. MPE 2-10x slower than a Xeon core).
//	[cal]   calibrated here so the four Table 1 strategies land in the
//	        paper's reported ratio bands; the ledger (ledger.go) marks
//	        every paper value a constant was fitted to.
const (
	// CPERate is the sustained scalar double-precision rate of one CPE,
	// flops/s. The CPE runs at 1.45 GHz with a dual-issue in-order
	// pipeline; scalar DP code sustains roughly one op per cycle. [lit]
	CPERate = 1.45e9

	// CPEVectorRate is the sustained 256-bit vector rate of one CPE:
	// 4 lanes, with FMA the peak is 11.6 GFlops; hand-vectorized
	// mul/add code sustains about half of peak. [lit]
	CPEVectorRate = 5.8e9

	// MPERate is the sustained rate of the management core running
	// legacy scalar code. The paper observes one MPE is 2-10x slower
	// than one Xeon E5-2680v3 core on the CAM kernels. [lit]
	MPERate = 0.55e9

	// IntelRate is the sustained rate of one Xeon E5-2680v3 core
	// (2.5 GHz Haswell) on compiler-vectorized stencil code. [lit]
	IntelRate = 3.0e9

	// CGMemBW is the memory bandwidth available to one core group: the
	// chip's 136.5 GB/s DDR3 split across 4 CGs, with ~85% achievable
	// through DMA. [spec, lit]
	CGMemBW = 29.0e9

	// MPEMemBW is the bandwidth one MPE achieves through its cache
	// hierarchy (no DMA): a small fraction of the CG's share. [lit]
	MPEMemBW = 6.0e9

	// IntelMemBW is the single-core STREAM bandwidth of the Xeon. [lit]
	IntelMemBW = 14.0e9

	// DMAIssue is the fixed cost of one DMA transfer descriptor, per
	// CPE, seconds. Fine-grained strided DMA pays this per row. [lit]
	DMAIssue = 150e-9

	// RegCommLatency is the per-message register-communication latency:
	// ~10 cycles at 1.45 GHz (§7.4 "within tens of cycles"). [spec]
	RegCommLatency = 7e-9

	// SpawnOverhead is the cost of launching one Athread parallel
	// region on the CPE cluster. [lit]
	SpawnOverhead = 2e-6

	// ACCRegionOverhead is the cost of entering one Sunway OpenACC
	// parallel region: the directive runtime re-marshals its argument
	// descriptors every launch, the "threading overhead" the paper
	// calls a huge issue for programs with no clear hot spots. [lit, cal]
	ACCRegionOverhead = 60e-6

	// Network (two-level fat tree, §5.1): MPI latency and per-process
	// bandwidth. Within a 256-node supernode the latency is lower. [lit]
	NetLatency      = 2.5e-6 // seconds, cross-supernode
	NetLatencyLocal = 1.0e-6 // seconds, within a supernode
	NetBWPerCG      = 2.75e9 // bytes/s per core group (11 GB/s node / 4)
	SupernodeCGs    = 1024   // 256 nodes x 4 CGs

	// Full system size: 40,960 nodes x 4 CGs x 65 cores. [spec]
	TotalCGs   = 163840
	CoresPerCG = 65
)
