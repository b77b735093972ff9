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

// assemble completes the DSS of every shared node once the messages are
// in, a field at a time, so that each pass touches one field's slab of
// the rank: first the purely local groups, then the remote ones.
func (p *Plan) assemble(lay Layout, fields [][][]float64) {
	for f, field := range fields {
		p.resolveLocal(lay, field)
		p.assembleRemote(lay, len(fields), f, field)
	}
}

// resolveLocal assembles every purely local group of one field: level by
// level, the weighted copies are summed in a register from 0.0 in
// mesh.NodeElems order and the sum is stored into every copy. The edge
// (two-copy) and corner (four-copy) shapes are unrolled. Each product
// is rounded explicitly, as the packed products of remote groups are, so
// no architecture fuses it into the add and a node's sum never depends
// on whether its copies are local.
func (p *Plan) resolveLocal(lay Layout, field [][]float64) {
	ns, ls := lay.NodeStride, lay.LevelStride
	n := (lay.Levels-1)*ls + 1 // the span of one copy's levels
	for _, gi := range p.local2 {
		g := &p.Groups[gi]
		a, b := g.Refs[0], g.Refs[1]
		wa, wb := g.W[0], g.W[1]
		xa, xb := field[a.Elem][a.Node*ns:][:n], field[b.Elem][b.Node*ns:][:n]
		for i := 0; i < n; i += ls {
			s := 0.0
			s += float64(wa * xa[i])
			s += float64(wb * xb[i])
			xa[i], xb[i] = s, s
		}
	}
	for _, gi := range p.local4 {
		g := &p.Groups[gi]
		a, b, c, d := g.Refs[0], g.Refs[1], g.Refs[2], g.Refs[3]
		wa, wb, wc, wd := g.W[0], g.W[1], g.W[2], g.W[3]
		xa, xb := field[a.Elem][a.Node*ns:][:n], field[b.Elem][b.Node*ns:][:n]
		xc, xd := field[c.Elem][c.Node*ns:][:n], field[d.Elem][d.Node*ns:][:n]
		for i := 0; i < n; i += ls {
			s := 0.0
			s += float64(wa * xa[i])
			s += float64(wb * xb[i])
			s += float64(wc * xc[i])
			s += float64(wd * xd[i])
			xa[i], xb[i], xc[i], xd[i] = s, s, s, s
		}
	}
	for _, gi := range p.localN {
		g := &p.Groups[gi]
		for i := 0; i < n; i += ls {
			s := 0.0
			for r, ref := range g.Refs {
				s += float64(g.W[r] * field[ref.Elem][ref.Node*ns+i])
			}
			for _, ref := range g.Refs {
				field[ref.Elem][ref.Node*ns+i] = s
			}
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

// assembleRemote assembles every remote group of field f (of nf) by
// walking its canonical chain, and stores the total into all local
// copies. Every term is read from a message buffer as a contiguous
// [levels] run: a received copy from its receive buffer, a local copy
// from a send buffer, where packNeighbor left its w·x. Each level's sum
// adds the chain's terms in mesh.NodeElems order from 0.0 on every rank,
// so the result is bit-identical to the serial DSS and independent of
// the partition. The edge (two-term) and corner (four-term) chains are
// unrolled; a generic loop takes the rest, such as cube corners.
func (p *Plan) assembleRemote(lay Layout, nf, f int, field [][]float64) {
	ns, ls, nl := lay.NodeStride, lay.LevelStride, lay.Levels
	n := (nl-1)*ls + 1 // the span of one copy's levels
	term := func(e int) []float64 { return p.msgs[(e*nf+f)*nl:][:nl] }
	for i, gi := range p.remote {
		chain := p.chain[p.chainStart[i]:p.chainStart[i+1]]
		refs := p.Groups[gi].Refs
		x := field[refs[0].Elem][refs[0].Node*ns:][:n]
		switch len(chain) {
		case 2:
			a, b := term(chain[0]), term(chain[1])
			for l, v := range a {
				s := 0.0
				s += v
				s += b[l]
				x[l*ls] = s
			}
		case 4:
			a, b, c, d := term(chain[0]), term(chain[1]), term(chain[2]), term(chain[3])
			for l, v := range a {
				s := 0.0
				s += v
				s += b[l]
				s += c[l]
				s += d[l]
				x[l*ls] = s
			}
		default:
			for l := 0; l < nl; l++ {
				s := 0.0
				for _, e := range chain {
					s += p.msgs[(e*nf+f)*nl+l]
				}
				x[l*ls] = s
			}
		}
		for _, ref := range refs[1:] {
			y := field[ref.Elem][ref.Node*ns:][:n]
			for k := 0; k < n; k += ls {
				y[k] = x[k]
			}
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
	p.ensureBufs(nf, lay.Levels, staged)

	// Remote-shared copies live entirely on boundary elements, which are
	// ready: pack their weighted values and get the messages moving first.
	// Both receives and sends are posted into the plan's persistent
	// request slots; nothing blocks until after the overlap window.
	for i := range p.Neighbors {
		nb := &p.Neighbors[i]
		buf := p.recvBufs[i]
		if staged {
			buf = p.landing[i]
		}
		c.IrecvInto(&p.recvReqs[i], nb.Rank, tagDSS, buf)
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
			copy(p.recvBufs[i], p.landing[i])
			st.StagingBytes += int64(len(p.recvBufs[i]) * 8)
		}
		st.UnpackBytes += int64(len(p.recvBufs[i]) * 8)
	}
	// All receives verified; only now touch the fields. The overlap
	// flavour assembles shared nodes straight from the receive buffers —
	// the direct unpack that removes the staging copy.
	p.assemble(lay, fields)
	return *st, nil
}
