package halo

import (
	"fmt"
	"time"

	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// Stats reports the data movement of one exchange, the quantity the
// §7.6 redesign attacks. Wire traffic is identical between the two
// flavours; staging-copy volume is not.
type Stats struct {
	PackBytes    int64 // element/partial data copied into send buffers
	UnpackBytes  int64 // data copied out of buffers into element storage
	StagingBytes int64 // extra receive->pack-buffer copies (original only)
	Msgs         int64 // messages sent
	WireBytes    int64 // payload bytes sent
	// WaitNs is wall time spent blocked waiting for messages —
	// communication NOT hidden behind computation. Only measured when
	// the plan is instrumented (Instrument), else 0; the obs StepReport
	// derives its comm/compute overlap ratio from WaitNs over the full
	// exchange duration.
	WaitNs int64
}

// Add accumulates another exchange's stats.
func (s *Stats) Add(o Stats) {
	s.PackBytes += o.PackBytes
	s.UnpackBytes += o.UnpackBytes
	s.StagingBytes += o.StagingBytes
	s.Msgs += o.Msgs
	s.WireBytes += o.WireBytes
	s.WaitNs += o.WaitNs
}

// Instrument attaches the observability subsystem to this plan: every
// exchange records a span (pid = rank) and feeds the halo.* registry
// counters, and receive waits are timed for the overlap ratio. Either
// argument may be nil; uninstrumented plans (the default) pay a single
// nil test per exchange.
func (p *Plan) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	p.obsTr, p.obsReg = tr, reg
}

func (p *Plan) instrumented() bool { return p.obsTr != nil || p.obsReg != nil }

// haloNoop avoids a closure allocation on the uninstrumented path.
var haloNoop = func() {}

// exchangeProbe opens the exchange span and returns the completion func
// that publishes st into the registry. st must be fully accumulated by
// the time the returned func runs (defer it).
func (p *Plan) exchangeProbe(name string, st *Stats) func() {
	if !p.instrumented() {
		return haloNoop
	}
	sp := p.obsTr.Begin(p.Rank, name, "comm")
	reg := p.obsReg
	start := time.Now()
	return func() {
		ns := time.Since(start).Nanoseconds()
		sp.End()
		if reg != nil {
			reg.Counter("halo.ns").Add(ns)
			reg.Counter("halo.wait.ns").Add(st.WaitNs)
			reg.Counter("halo.pack.bytes").Add(st.PackBytes)
			reg.Counter("halo.unpack.bytes").Add(st.UnpackBytes)
			reg.Counter("halo.staging.bytes").Add(st.StagingBytes)
			reg.Counter("halo.msgs").Add(st.Msgs)
			reg.Counter("halo.wire.bytes").Add(st.WireBytes)
		}
	}
}

// exchange tags; the dycore performs up to three exchanges per RK stage
// (the paper's "3 sub-cycles edge packing/unpacking"), distinguished by
// the caller's epoch.
const tagDSS = 101

// Layout describes how per-node, per-level values are indexed within an
// element's field slice: value (node, level) lives at
// node*NodeStride + level*LevelStride. CAM-SE stores tracers node-major
// in the edge buffers but the state level-major; both appear here.
type Layout struct {
	Levels      int
	NodeStride  int
	LevelStride int
}

// LevelMajor is the layout with whole np*np level slabs contiguous.
func LevelMajor(levels, npsq int) Layout {
	return Layout{Levels: levels, NodeStride: 1, LevelStride: npsq}
}

// resolveLocal assembles every purely local group: the weighted sum of
// its copies, written back into each of them. Remote groups go through
// the canonical chain instead (assembleRemote). Both run level-innermost:
// one [levels] strip per (group, field), each term added to all of its
// levels before the next. Every level's sum still takes its terms in
// order from 0.0, so the DSS is bit-identical to summing level by level.
func (p *Plan) resolveLocal(strip []float64, lay Layout, nfields int, fields ...[][]float64) {
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Remote {
			continue
		}
		for f := 0; f < nfields; f++ {
			clear(strip)
			for r := range g.Refs {
				addCopy(strip, g, r, lay, fields[f])
			}
			scatterStrip(strip, g, lay, fields[f])
		}
	}
}

// addCopy adds local copy r of group g, weighted, to every level of strip.
func addCopy(strip []float64, g *Group, r int, lay Layout, field [][]float64) {
	w, src := g.W[r], field[g.Refs[r].Elem][g.Refs[r].Node*lay.NodeStride:]
	for l := range strip {
		strip[l] += w * src[l*lay.LevelStride]
	}
}

// scatterStrip writes the assembled strip into every local copy of g.
func scatterStrip(strip []float64, g *Group, lay Layout, field [][]float64) {
	for _, ref := range g.Refs {
		dst := field[ref.Elem][ref.Node*lay.NodeStride:]
		for l, v := range strip {
			dst[l*lay.LevelStride] = v
		}
	}
}

// packNeighbor fills buf with the weighted copy values this rank sends
// to neighbour nb: for every scheduled (group, local copy) entry, the
// copy's DSSW weight times its field value. Shipping w·x per copy — not
// per-rank partial sums — is what lets every receiver replay the
// canonical summation chain.
func (p *Plan) packNeighbor(nb *Neighbor, buf []float64, lay Layout, nfields int, fields ...[][]float64) {
	stride := lay.Levels
	k := 0
	for e, slot := range nb.SendGroup {
		g := &p.Groups[slot]
		ref := g.Refs[nb.SendRef[e]]
		w := g.W[nb.SendRef[e]]
		for f := 0; f < nfields; f++ {
			src := fields[f][ref.Elem][ref.Node*lay.NodeStride:]
			out := buf[k:][:stride]
			for l := range out {
				out[l] = w * src[l*lay.LevelStride]
			}
			k += stride
		}
	}
}

// assembleRemote resolves every remote-shared group by walking its
// canonical chain — local copies weighted in place, remote copies read
// from the neighbour receive buffers — and writes the total back into
// all local copies. The chain order is mesh.NodeElems order on every
// rank, so the result is bit-identical to the serial DSS and independent
// of the partition.
func (p *Plan) assembleRemote(strip []float64, recvBufs [][]float64, lay Layout, nfields int, fields ...[][]float64) {
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if !g.Remote {
			continue
		}
		for f := 0; f < nfields; f++ {
			clear(strip)
			for _, t := range g.Chain {
				if t.Local {
					addCopy(strip, g, t.Ref, lay, fields[f])
					continue
				}
				for l, v := range recvBufs[t.Nb][(t.Pos*nfields+f)*len(strip):][:len(strip)] {
					strip[l] += v
				}
			}
			scatterStrip(strip, g, lay, fields[f])
		}
	}
}

// DSSOriginal performs the exchange in HOMME's original unified-buffer
// style: nothing overlaps the messages, and received data is copied
// first into the pack buffer and only then into element storage (the
// redundant memory copy the paper removes). It is DSSOverlap with an
// empty window plus that staging copy, counted in Stats.StagingBytes.
// fields are per-element nodal arrays with `stride` values per GLL node;
// every field is exchanged in one message per neighbour, as the real
// code packs multiple tracers/levels together.
//
// A detected transport fault (CRC mismatch, receive timeout, aborted
// world) is returned as an error naming the neighbour; the fields have
// not been scattered into, so the caller sees either a completed DSS or
// its pre-exchange values — never a partially-averaged mixture.
func (p *Plan) DSSOriginal(c *mpirt.Comm, lay Layout, fields ...[][]float64) (Stats, error) {
	return p.dss(c, lay, nil, true, fields)
}

// DSSOverlap performs the redesigned exchange of §7.6. The caller must
// already have computed the boundary elements' field values; inner
// elements are produced by computeInner, which runs while boundary
// partials are in flight. Receives and sends are posted asynchronously
// into the plan's persistent request slots before the overlap window and
// drained only after it, so no send serializes the pipeline. Received
// copies are assembled directly from the receive buffers (no staging
// copy). computeInner may be nil when there is nothing to overlap; each
// invocation with a real computeInner bumps the "halo.overlap.windows"
// registry counter on instrumented plans.
//
// A detected transport fault is returned as an error naming the
// neighbour. No group has been assembled by then, so the fields hold
// their pre-exchange values apart from what computeInner wrote; with a
// real window the step must still be rolled back or the world aborted.
func (p *Plan) DSSOverlap(c *mpirt.Comm, lay Layout, computeInner func(), fields ...[][]float64) (Stats, error) {
	return p.dss(c, lay, computeInner, false, fields)
}

// dss is the one exchange body. In order: post the receives, pack and
// send, run the window, drain the sends, drain the receives (staging
// each through the pack buffer when staged), then resolve the local
// groups and assemble the remote ones. The fault injector sees the sends
// and then the receives in neighbour order on both flavours.
func (p *Plan) dss(c *mpirt.Comm, lay Layout, computeInner func(), staged bool, fields [][][]float64) (Stats, error) {
	nf := len(fields)
	if nf == 0 {
		if computeInner != nil {
			computeInner()
		}
		return Stats{}, nil
	}
	st := &p.exchStats
	*st = Stats{}
	timed := p.instrumented()
	name := "halo.dss_overlap"
	if staged {
		name = "halo.dss_original"
	}
	defer p.exchangeProbe(name, st)()
	stride := lay.Levels
	strip := p.ensureScratch(stride)
	p.ensureBufs(nf, stride)
	recvBufs := p.recvBufs
	if staged {
		recvBufs = p.staged
	}

	// Remote-shared copies live entirely on boundary elements, which are
	// ready: pack their weighted values and get the messages moving first.
	// Both receives and sends are posted into the plan's persistent
	// request slots; nothing blocks until after the overlap window.
	for i := range p.Neighbors {
		nb := &p.Neighbors[i]
		c.IrecvInto(&p.recvReqs[i], nb.Rank, tagDSS, p.recvBufs[i])
	}
	for i := range p.Neighbors {
		nb := &p.Neighbors[i]
		p.packNeighbor(nb, p.sendBufs[i], lay, nf, fields...)
		st.PackBytes += int64(len(p.sendBufs[i]) * 8)
		c.IsendInto(&p.sendReqs[i], nb.Rank, tagDSS, p.sendBufs[i])
		st.Msgs++
		st.WireBytes += int64(len(p.sendBufs[i]) * 8)
	}

	// Overlap window: inner elements compute while messages are in flight.
	// Only counted as a window when messages actually are in flight — a
	// neighbourless rank has nothing to hide work behind, and counting it
	// would let a communication-free run report an overlap ratio.
	if computeInner != nil {
		if p.obsReg != nil && len(p.Neighbors) > 0 {
			p.obsReg.Counter("halo.overlap.windows").Add(1)
		}
		computeInner()
	}

	// Drain the tracked sends, then the receives. Time spent blocked here
	// is communication the window failed to hide.
	for i := range p.Neighbors {
		if err := p.sendReqs[i].WaitErr(); err != nil {
			return *st, fmt.Errorf("halo: DSS exchange with rank %d: %w", p.Neighbors[i].Rank, err)
		}
	}
	for i := range p.Neighbors {
		var w0 time.Time
		if timed {
			w0 = time.Now()
		}
		if err := p.recvReqs[i].WaitErr(); err != nil {
			return *st, fmt.Errorf("halo: DSS exchange with rank %d: %w", p.Neighbors[i].Rank, err)
		}
		if timed {
			st.WaitNs += time.Since(w0).Nanoseconds()
		}
		if staged {
			copy(p.staged[i], p.recvBufs[i])
			st.StagingBytes += int64(len(p.recvBufs[i]) * 8)
		}
		st.UnpackBytes += int64(len(p.recvBufs[i]) * 8)
	}
	// All receives verified; only now touch the fields. The overlap
	// flavour assembles shared nodes straight from the receive buffers —
	// the direct unpack that removes the staging copy.
	p.resolveLocal(strip, lay, nf, fields...)
	p.assembleRemote(strip, recvBufs, lay, nf, fields...)
	return *st, nil
}
