// Package exec lowers the CAM-SE kernels three ways and runs them
// against the SW26010 simulator. The paper's Table 1 has four strategies;
// the fourth, its "original ported version using only MPEs", runs the
// unmodified serial code on the management core, so it is a price on the
// Intel run (internal/perf's MPETime), not a lowering:
//
//   - Intel:   the reference — one conventional x86 core running the
//     serial dycore kernels (the paper's Xeon E5-2680v3 baseline).
//   - OpenACC: the first-stage refactoring (§7.2): work spread over the
//     64 CPEs, but with the Sunway OpenACC compiler's constraints —
//     every outer-loop iteration re-reads its input arrays (Algorithm 1),
//     no manual vectorization, a threading launch overhead per parallel
//     region, and no register communication (vertical dependencies are
//     computed redundantly per CPE).
//   - Athread: the fine-grained redesign (§7.3-7.5): persistent LDM
//     tiles, 4-wide vectorized inner loops, the vertical-layer
//     decomposition of Figure 2 with register-communication scans, and
//     batched DMA.
//
// All three backends execute the same floating-point work and are
// validated against each other; they differ in the architectural events
// they generate (Cost), which internal/perf converts into modeled time.
package exec

import (
	"fmt"
	"strings"
)

// Backend selects an execution strategy.
type Backend int

// The three lowerings of Table 1 / Figure 5.
const (
	Intel Backend = iota
	OpenACC
	Athread
)

// String returns the paper's name for the backend.
func (b Backend) String() string {
	switch b {
	case Intel:
		return "Intel"
	case OpenACC:
		return "OpenACC"
	case Athread:
		return "Athread"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Backends lists all three in Table 1 order.
var Backends = []Backend{Intel, OpenACC, Athread}

// ParseBackend returns the backend whose lower-case name is name.
func ParseBackend(name string) (Backend, error) {
	for _, b := range Backends {
		if name == strings.ToLower(b.String()) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want intel|openacc|athread)", name)
}

// Cost is the architectural event count of one kernel execution on one
// process (one core group, or one conventional core for Intel).
type Cost struct {
	Backend Backend

	FlopsScalar int64 // scalar double-precision operations, total
	FlopsVector int64 // vector-retired double-precision operations, total
	MaxCPEFlops int64 // busiest CPE's flops — bounds the parallel makespan

	MemBytes int64 // main-memory traffic (DMA for CPE backends, loads/stores otherwise)
	DMAOps   int64 // discrete DMA transfers (issue latency each)
	RegMsgs  int64 // register-communication messages
	Launches int64 // parallel-region spawns (threading overhead each)
	LDMPeak  int64 // peak LDM working set, bytes (must be <= 64 KB)
}

// Flops returns total double-precision operations.
func (c Cost) Flops() int64 { return c.FlopsScalar + c.FlopsVector }

// Add accumulates another cost (same backend) into c.
func (c *Cost) Add(o Cost) {
	c.FlopsScalar += o.FlopsScalar
	c.FlopsVector += o.FlopsVector
	c.MemBytes += o.MemBytes
	c.DMAOps += o.DMAOps
	c.RegMsgs += o.RegMsgs
	c.Launches += o.Launches
	if o.MaxCPEFlops > c.MaxCPEFlops {
		c.MaxCPEFlops = o.MaxCPEFlops
	}
	if o.LDMPeak > c.LDMPeak {
		c.LDMPeak = o.LDMPeak
	}
}
