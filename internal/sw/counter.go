package sw

// PerfCounter accumulates the architectural events of one core. The
// paper measures double-precision flops with the Sunway PERF hardware
// monitor (§8.1.1); here kernels account their arithmetic explicitly with
// documented formulas, and data movement is accounted by the DMA and
// register-communication primitives themselves. internal/perf converts
// these counts into modeled seconds.
//
// One CPE of a core group runs at a time and counters are aggregated
// after the launch joins, so no atomics are needed.
type PerfCounter struct {
	FlopsScalar int64 // double-precision scalar arithmetic operations
	FlopsVector int64 // double-precision ops retired through Vec4 lanes
	DMABytesIn  int64 // main memory -> LDM
	DMABytesOut int64 // LDM -> main memory
	DMAOps      int64 // discrete DMA transfers issued
	RegMsgs     int64 // register-communication messages sent
	RegBytes    int64 // register-communication payload bytes
	Shuffles    int64 // vector shuffle instructions
	LDMPeak     int64 // largest one-launch LDM working set since the last reset, bytes
}

// DMABytes returns total bytes moved by DMA in either direction.
func (c *PerfCounter) DMABytes() int64 { return c.DMABytesIn + c.DMABytesOut }

// Add accumulates another counter into c (used to aggregate the 64 CPEs
// of a core group after a parallel region joins).
func (c *PerfCounter) Add(o *PerfCounter) {
	c.FlopsScalar += o.FlopsScalar
	c.FlopsVector += o.FlopsVector
	c.DMABytesIn += o.DMABytesIn
	c.DMABytesOut += o.DMABytesOut
	c.DMAOps += o.DMAOps
	c.RegMsgs += o.RegMsgs
	c.RegBytes += o.RegBytes
	c.Shuffles += o.Shuffles
	if o.LDMPeak > c.LDMPeak {
		c.LDMPeak = o.LDMPeak
	}
}

// MaxInPlace records, per field, the maximum of c and o. The makespan of
// a parallel region is governed by the most loaded CPE, so the roofline
// model consumes a max-reduced counter alongside the sum.
func (c *PerfCounter) MaxInPlace(o *PerfCounter) {
	maxi := func(dst *int64, v int64) {
		if v > *dst {
			*dst = v
		}
	}
	maxi(&c.FlopsScalar, o.FlopsScalar)
	maxi(&c.FlopsVector, o.FlopsVector)
	maxi(&c.DMABytesIn, o.DMABytesIn)
	maxi(&c.DMABytesOut, o.DMABytesOut)
	maxi(&c.DMAOps, o.DMAOps)
	maxi(&c.RegMsgs, o.RegMsgs)
	maxi(&c.RegBytes, o.RegBytes)
	maxi(&c.Shuffles, o.Shuffles)
	maxi(&c.LDMPeak, o.LDMPeak)
}

// Reset zeroes every counter.
func (c *PerfCounter) Reset() { *c = PerfCounter{} }
