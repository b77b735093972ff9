package sw

import "fmt"

// DMA is the per-CPE DMA engine moving data between shared main memory
// (ordinary Go slices owned by the core group) and the CPE's LDM buffers.
// Transfers complete synchronously in the functional simulation, and no
// kernel here issues the asynchronous get/put + wait flavor of Athread:
// overlap of DMA with compute is not modelled.
//
// Every transfer is accounted against the owning CPE's PerfCounter; the
// roofline model charges bytes against the CG memory bandwidth and a
// fixed issue latency per operation, which is what makes the OpenACC
// backend's redundant per-loop copyin (Algorithm 1) measurably worse than
// the Athread backend's persistent tiles (Algorithm 2).
type DMA struct {
	ctr *PerfCounter
	// mute suppresses counter recording while still moving data. It is
	// only set inside CPE.Setup on launch-replay tiles: when the host
	// splits one logical athread_spawn into several tiles, each tile's
	// core group must still load its own LDM image of the hoisted
	// per-launch constants, but the traffic was already accounted by the
	// tile covering the first block, so counters stay invariant to how
	// the host tiles the launch.
	mute bool
}

// Get copies n = len(dst) float64 values from main memory src into the
// LDM buffer dst and accounts the traffic.
func (d *DMA) Get(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sw: DMA get length mismatch: dst %d src %d", len(dst), len(src)))
	}
	copy(dst, src)
	if d.mute {
		return
	}
	d.ctr.DMABytesIn += int64(len(dst) * F64Bytes)
	d.ctr.DMAOps++
}

// Put copies the LDM buffer src back to main memory dst and accounts it.
func (d *DMA) Put(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sw: DMA put length mismatch: dst %d src %d", len(dst), len(src)))
	}
	copy(dst, src)
	if d.mute {
		return
	}
	d.ctr.DMABytesOut += int64(len(src) * F64Bytes)
	d.ctr.DMAOps++
}

// GetStride gathers count rows of rowLen float64 values from main memory,
// where consecutive rows are stride values apart in src, packing them
// densely into dst. This is the multi-dimensional strided DMA the Sunway
// OpenACC extension exposes for array transposes and the Athread code
// uses to fetch (i,j) planes out of (i,j,k) arrays.
func (d *DMA) GetStride(dst, src []float64, rowLen, stride, count int) {
	if len(dst) < rowLen*count {
		panic("sw: DMA strided get: dst too small")
	}
	for r := 0; r < count; r++ {
		copy(dst[r*rowLen:(r+1)*rowLen], src[r*stride:r*stride+rowLen])
	}
	if d.mute {
		return
	}
	d.ctr.DMABytesIn += int64(rowLen * count * F64Bytes)
	// A strided transfer costs one issue per row on the hardware's DMA
	// queue; account each row so the roofline model sees the latency
	// penalty of fine-grained gathers.
	d.ctr.DMAOps += int64(count)
}

// PutStride scatters count dense rows of rowLen values from the LDM
// buffer src into main memory dst with the given row stride.
func (d *DMA) PutStride(dst, src []float64, rowLen, stride, count int) {
	if len(src) < rowLen*count {
		panic("sw: DMA strided put: src too small")
	}
	for r := 0; r < count; r++ {
		copy(dst[r*stride:r*stride+rowLen], src[r*rowLen:(r+1)*rowLen])
	}
	if d.mute {
		return
	}
	d.ctr.DMABytesOut += int64(rowLen * count * F64Bytes)
	d.ctr.DMAOps += int64(count)
}

// GetShared is the broadcast-mode DMA load of the SW26010: when all 64
// CPEs need the same read-only block (the GLL derivative matrix, shared
// coefficients), the memory controller reads it once and multicasts it
// over the mesh buses instead of servicing 64 separate reads. Each CPE
// receives its own LDM copy; the accounted main-memory traffic is the
// amortized 1/64 share per CPE, and the issue cost is charged once per
// cluster in the same way.
func (d *DMA) GetShared(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sw: DMA broadcast length mismatch: dst %d src %d", len(dst), len(src)))
	}
	copy(dst, src)
	if d.mute {
		return
	}
	d.ctr.DMABytesIn += int64(len(dst)*F64Bytes) / CPEsPerCG
	// Each CPE still posts one receive descriptor for the multicast.
	d.ctr.DMAOps++
}
