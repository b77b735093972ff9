package sw

import "fmt"

// MeshDim is the side of the CPE mesh: 8x8 = 64 CPEs per core group.
const MeshDim = 8

// CPEsPerCG is the number of computing processing elements per core group.
const CPEsPerCG = MeshDim * MeshDim

// regBufDepth is the modeled depth of a CPE's register receive buffer.
// The hardware buffers a handful of in-flight registers per link; a
// depth of 4 lets the paper's pipelined scan run without artificial
// serialization while still exerting back-pressure.
const regBufDepth = 4

// regLink is the receive buffer of one ordered (src,dst) CPE pair: a
// depth-4 ring of registers, oldest at head.
type regLink struct {
	buf     [regBufDepth]Vec4
	head, n uint8
}

// regFabric is the register-communication fabric of one core group.
// The SW26010 lets a CPE push a 256-bit register directly into the
// receive buffer of another CPE in the same row or column of the mesh,
// within tens of cycles (§7.4). The fabric is one regLink per ordered
// (src,dst) pair that shares a row or a column; any other pair is an
// architectural violation and panics in link, so kernels cannot
// accidentally assume all-to-all connectivity the hardware does not
// have.
//
// The links are plain memory — no channel, lock or atomic — because
// exactly one CPE of a core group runs at a time (see Spawn): a CPE that
// finds its link full or empty yields to the peer it waits on instead
// of blocking a thread.
type regFabric struct {
	// links[src*2*MeshDim+j] carries src's registers to the CPE in
	// column j of its row (j < MeshDim) or in row j-MeshDim of its
	// column; the two slots per CPE that would name itself stay unused,
	// leaving the mesh's 896 real links.
	links [CPEsPerCG * 2 * MeshDim]regLink
	// moved counts registers entering or leaving any link. The scheduler
	// reads it as its progress witness: a CPE that waits twice at one
	// value of moved waits in a cycle nothing can break.
	moved uint64
}

func cpeID(row, col int) int { return row*MeshDim + col }

// link returns the receive buffer for registers travelling from CPE
// (srow,scol) to CPE (drow,dcol) — the one place that knows which pairs
// the mesh connects.
func (f *regFabric) link(srow, scol, drow, dcol int) *regLink {
	if uint(srow|scol|drow|dcol) < MeshDim {
		switch {
		case srow == drow && scol != dcol:
			return &f.links[cpeID(srow, scol)*2*MeshDim+dcol]
		case scol == dcol && srow != drow:
			return &f.links[cpeID(srow, scol)*2*MeshDim+MeshDim+drow]
		}
	}
	panic(fmt.Sprintf("sw: register communication between CPE(%d,%d) and CPE(%d,%d): not in same row or column",
		srow, scol, drow, dcol))
}

// drain empties every link, discarding registers in flight.
func (f *regFabric) drain() {
	for i := range f.links {
		f.links[i].head, f.links[i].n = 0, 0
	}
}

// RegSend transfers one 256-bit register to the CPE at (drow,dcol), which
// must share a row or column with this CPE. While the destination's
// receive buffer is full the sender yields to the destination
// (back-pressure), like the hardware stalls it.
func (c *CPE) RegSend(drow, dcol int, v Vec4) {
	f := c.cg.fabric
	l := f.link(c.Row, c.Col, drow, dcol)
	for l.n == regBufDepth {
		c.waitOn(cpeID(drow, dcol))
	}
	l.buf[(l.head+l.n)%regBufDepth] = v
	l.n++
	f.moved++
	c.Ctr.RegMsgs++
	c.Ctr.RegBytes += VecWidth * F64Bytes
}

// RegRecv returns the oldest register sent by the CPE at (srow,scol),
// yielding to that CPE until one has arrived.
func (c *CPE) RegRecv(srow, scol int) Vec4 {
	f := c.cg.fabric
	l := f.link(srow, scol, c.Row, c.Col)
	for l.n == 0 {
		c.waitOn(cpeID(srow, scol))
	}
	v := l.buf[l.head]
	l.head = (l.head + 1) % regBufDepth
	l.n--
	f.moved++
	return v
}

// RegSendScalar sends a single float64 through the register fabric
// (occupying a full register slot, as on hardware).
func (c *CPE) RegSendScalar(drow, dcol int, x float64) {
	c.RegSend(drow, dcol, Vec4{x, 0, 0, 0})
}

// RegRecvScalar receives a single float64 sent with RegSendScalar.
func (c *CPE) RegRecvScalar(srow, scol int) float64 {
	return c.RegRecv(srow, scol)[0]
}

// ExchangeBlock swaps a data block with the CPE at (drow,dcol) over the
// register fabric: send[] goes out, the partner's block arrives in
// recv[] (same length). Transfers are chunked to the receive-buffer
// depth with a symmetric send-then-drain schedule, so two CPEs
// exchanging blocks concurrently cannot deadlock regardless of block
// size. Lengths must match on both sides and be multiples of VecWidth.
func (c *CPE) ExchangeBlock(drow, dcol int, send, recv []float64) {
	if len(send) != len(recv) || len(send)%VecWidth != 0 {
		panic("sw: ExchangeBlock needs equal vector-multiple lengths")
	}
	chunk := regBufDepth * VecWidth // values per safe burst
	for off := 0; off < len(send); off += chunk {
		end := off + chunk
		if end > len(send) {
			end = len(send)
		}
		for i := off; i < end; i += VecWidth {
			c.RegSend(drow, dcol, LoadVec4(send, i))
		}
		for i := off; i < end; i += VecWidth {
			c.RegRecv(drow, dcol).Store(recv, i)
		}
	}
}
