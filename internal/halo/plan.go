// Package halo implements the distributed boundary exchange of CAM-SE —
// the bndry_exchangev subroutine the paper redesigns in §7.6 — in two
// flavours that produce identical results with different data movement:
//
//   - DSSOriginal follows HOMME's unified pack-buffer design: every
//     contribution, local or remote, is staged through pack and unpack
//     buffers, and received data takes the long path
//     receive buffer -> pack buffer -> element storage.
//   - DSSOverlap is the paper's redesign: elements are split into an
//     inner part and a boundary part, boundary contributions are packed
//     and sent first, the caller's inner computation runs while messages
//     are in flight, and received data is accumulated straight from the
//     receive buffer into element storage, eliminating the intermediate
//     copy.
//
// Both flavours implement the direct stiffness summation (DSS) that makes
// spectral-element fields C0-continuous: every GLL node shared by several
// elements — possibly on several ranks — ends up holding the
// SphereMP-weighted average of all its element copies.
//
// The exchange ships individual weighted copies (one w·x value per
// element copy of a shared node) rather than per-rank partial sums, and
// every rank assembles each shared node by adding the copies in the
// mesh's canonical NodeElems order — the same chain the serial solver
// walks. That makes the distributed DSS bit-identical to the serial DSS
// and, crucially, invariant under repartitioning: the floating-point
// grouping never depends on which rank owns which element, which is what
// lets shrink recovery (core.ResilientJob) move elements between ranks
// mid-run without perturbing the trajectory.
package halo

import (
	"fmt"
	"slices"
	"sort"

	"swcam/internal/mesh"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// LocalRef addresses one element-local copy of a shared node.
type LocalRef struct {
	Elem int // local element slot (index into the rank's element list)
	Node int // local node index within the element, j*np+i
}

// Group is one shared GLL node as seen from this rank: the local copies
// that contribute to it and their DSS weights, both in mesh.NodeElems
// order.
type Group struct {
	Refs   []LocalRef
	W      []float64 // DSSW weight of each local copy
	Slot   int       // index of this group in Plan.Groups
	Remote bool      // true when other ranks also hold copies
}

// Neighbor is one adjacent rank and the agreed-order schedules exchanged
// with it. Messages carry one weighted copy value per element copy the
// sender holds of each shared node; both sides enumerate shared nodes in
// global-node-id order and copies in mesh.NodeElems order, so entry k of
// a message means the same physical copy on each end.
type Neighbor struct {
	Rank      int
	SendGroup []int // group slot of each outgoing entry
	SendRef   []int // local copy (index into Group.Refs) of each outgoing entry
	RecvLen   int   // incoming entries: copies the peer holds of our shared nodes
	Nodes     int   // distinct shared nodes (symmetric; the machine-model message size)
}

// Plan is the rank-local exchange schedule, built once per partition and
// reused every timestep (HOMME builds its edge schedules the same way).
type Plan struct {
	Rank    int
	Np      int
	Elems   []int       // global element ids owned by this rank, ascending
	LocalOf map[int]int // global element id -> local slot

	Groups    []Group
	Neighbors []Neighbor

	// BoundaryElems are local slots owning at least one remote-shared
	// node; InnerElems are the rest. The redesigned exchange computes
	// boundary elements first so their contributions can be in flight
	// while inner elements compute (§7.6).
	BoundaryElems []int
	InnerElems    []int

	// The assembly's group lists, by shape: purely local groups of two
	// copies (element edges), of four (element corners) and of any other
	// count (cube corners hold three), then the remote groups. Each is a
	// list of slots into Groups, ascending.
	local2, local4, localN, remote []int
	// The remote groups' canonical summation chains, compiled to message
	// entries. A chain lists every copy of its node, local or not, in
	// mesh.NodeElems order (ascending element id), so summing it term by
	// term reproduces the serial DSS bit for bit on every rank that holds
	// the node. Remote group i's terms are read from entries
	// chain[chainStart[i]:chainStart[i+1]] of msgs, counted over every
	// send buffer and then every receive buffer, in neighbour order: a
	// received copy from its receive buffer, a local copy from a send
	// buffer, where packing already stored the very w·x product the sum
	// needs.
	chain, chainStart []int

	// Persistent exchange buffers and request slots, grown on demand and
	// reused every timestep so the steady-state exchange performs no heap
	// allocation (HOMME likewise allocates its edge buffers once per
	// schedule). msgs is one arena of msgEntries entries of nf·levels
	// values; sendBufs and recvBufs are its per-neighbour views.
	msgs       []float64
	msgEntries int
	sendBufs   [][]float64
	recvBufs   [][]float64
	landing    [][]float64 // where DSSOriginal receives, before its staging copy into recvBufs
	sendReqs   []mpirt.Request
	recvReqs   []mpirt.Request
	// exchStats is the in-progress exchange's stats accumulator. It lives
	// on the Plan because its address is taken by the obs probe closure,
	// which would force a per-call heap allocation as a local.
	exchStats Stats

	// Observability hooks (nil = off; see Instrument in exchange.go).
	obsTr  *obs.Tracer
	obsReg *obs.Registry
}

// NewPlan builds the exchange schedule for one rank of a partition.
// rankOf maps every global element id to its owning rank.
func NewPlan(m *mesh.Mesh, rankOf []int, rank int) *Plan {
	if len(rankOf) != m.NElems() {
		panic(fmt.Sprintf("halo: rankOf has %d entries for %d elements", len(rankOf), m.NElems()))
	}
	p := &Plan{Rank: rank, Np: m.Np, LocalOf: make(map[int]int)}
	for id, r := range rankOf {
		if r == rank {
			p.LocalOf[id] = len(p.Elems)
			p.Elems = append(p.Elems, id)
		}
	}

	// Pass 1: collect the neighbour rank set so chain terms can refer to
	// neighbours by their final sorted index.
	nbSet := map[int]bool{}
	for _, refs := range m.NodeElems {
		onRank := false
		for _, r := range refs {
			if rankOf[r.Elem] == rank {
				onRank = true
				break
			}
		}
		if !onRank {
			continue
		}
		for _, r := range refs {
			if rankOf[r.Elem] != rank {
				nbSet[rankOf[r.Elem]] = true
			}
		}
	}
	nbRanks := make([]int, 0, len(nbSet))
	for nb := range nbSet {
		nbRanks = append(nbRanks, nb)
	}
	sort.Ints(nbRanks)
	nbIndex := make(map[int]int, len(nbRanks))
	p.Neighbors = make([]Neighbor, len(nbRanks))
	for i, nb := range nbRanks {
		p.Neighbors[i] = Neighbor{Rank: nb}
		nbIndex[nb] = i
	}

	// Pass 2: walk every global node in ascending-gid order (NodeElems is
	// indexed by gid) and build groups, canonical chains, and the agreed
	// send/receive schedules. Because every rank enumerates the same
	// NodeElems refs in the same order, sender entry order and receiver
	// chain positions agree by construction.
	boundary := map[int]bool{}
	var touched []int // neighbours holding copies of the current node, in chain order
	// chainBuf[k] is the buffer chain[k] indexes while the plan is built:
	// send buffer i, or receive buffer i as len(Neighbors)+i.
	var chainBuf []int
	p.chainStart = []int{0}
	for _, refs := range m.NodeElems {
		var local []LocalRef
		var w []float64
		remote := false
		for _, r := range refs {
			if rankOf[r.Elem] == rank {
				local = append(local, LocalRef{Elem: p.LocalOf[r.Elem], Node: r.Idx})
				w = append(w, m.Elements[r.Elem].DSSW[r.Idx])
			} else {
				remote = true
			}
		}
		if len(local) == 0 {
			continue // node not on this rank
		}
		if len(local) == 1 && !remote {
			continue // unshared node, no DSS needed
		}
		g := Group{Refs: local, W: w, Slot: len(p.Groups), Remote: remote}
		switch {
		case remote:
			p.remote = append(p.remote, g.Slot)
		case len(local) == 2:
			p.local2 = append(p.local2, g.Slot)
		case len(local) == 4:
			p.local4 = append(p.local4, g.Slot)
		default:
			p.localN = append(p.localN, g.Slot)
		}
		if remote {
			// Canonical chain over every copy, and per-neighbour message
			// positions advanced in the same canonical order. A local
			// term is placed once the neighbours are known.
			first := len(p.chain)
			touched = touched[:0]
			for _, r := range refs {
				if rankOf[r.Elem] == rank {
					p.chain = append(p.chain, 0)
					chainBuf = append(chainBuf, -1)
					continue
				}
				ni := nbIndex[rankOf[r.Elem]]
				nb := &p.Neighbors[ni]
				p.chain = append(p.chain, nb.RecvLen)
				chainBuf = append(chainBuf, len(p.Neighbors)+ni)
				nb.RecvLen++
				if !slices.Contains(touched, ni) {
					touched = append(touched, ni)
				}
			}
			// Every local copy of the node is sent to every neighbour
			// that holds it, in chain (NodeElems) order. The chain reads
			// each local term back from the first such neighbour's send
			// buffer, where packing leaves its w·x.
			pos := len(p.Neighbors[touched[0]].SendGroup)
			for k := first; k < len(p.chain); k++ {
				if chainBuf[k] < 0 {
					p.chain[k], chainBuf[k] = pos, touched[0]
					pos++
				}
			}
			p.chainStart = append(p.chainStart, len(p.chain))
			for _, ni := range touched {
				nb := &p.Neighbors[ni]
				nb.Nodes++
				for li := range g.Refs {
					nb.SendGroup = append(nb.SendGroup, g.Slot)
					nb.SendRef = append(nb.SendRef, li)
				}
			}
			for _, lr := range local {
				boundary[lr.Elem] = true
			}
		}
		p.Groups = append(p.Groups, g)
	}

	// Translate each chain entry from its buffer to msgs: the send
	// buffers' entries first, then the receive buffers'.
	bufStart := make([]int, 2*len(p.Neighbors))
	for i, nb := range p.Neighbors {
		bufStart[i] = p.msgEntries
		p.msgEntries += len(nb.SendGroup)
	}
	for i, nb := range p.Neighbors {
		bufStart[len(p.Neighbors)+i] = p.msgEntries
		p.msgEntries += nb.RecvLen
	}
	for k, b := range chainBuf {
		p.chain[k] += bufStart[b]
	}

	for le := range p.Elems {
		if boundary[le] {
			p.BoundaryElems = append(p.BoundaryElems, le)
		} else {
			p.InnerElems = append(p.InnerElems, le)
		}
	}
	return p
}

// NLocal returns the number of elements owned by this rank.
func (p *Plan) NLocal() int { return len(p.Elems) }

// ensureBufs sizes the persistent exchange buffers and request slots for
// an exchange of nf fields with `stride` values per node, and cuts the
// per-neighbour views of msgs: every send buffer, then every receive
// buffer. The landing buffers are sized only when landing is set
// (DSSOriginal). Buffers only ever grow, so after the first exchange of
// a given shape the hot path is allocation-free.
func (p *Plan) ensureBufs(nf, stride int, landing bool) {
	n := len(p.Neighbors)
	if len(p.sendBufs) < n {
		p.sendBufs = make([][]float64, n)
		p.recvBufs = make([][]float64, n)
		p.landing = make([][]float64, n)
		p.sendReqs = make([]mpirt.Request, n)
		p.recvReqs = make([]mpirt.Request, n)
	}
	entry := nf * stride
	if total := p.msgEntries * entry; cap(p.msgs) < total {
		p.msgs = make([]float64, total)
	} else {
		p.msgs = p.msgs[:total]
	}
	off := 0
	for i := range p.Neighbors {
		l := len(p.Neighbors[i].SendGroup) * entry
		p.sendBufs[i] = p.msgs[off : off+l : off+l]
		off += l
	}
	for i := range p.Neighbors {
		l := p.Neighbors[i].RecvLen * entry
		p.recvBufs[i] = p.msgs[off : off+l : off+l]
		off += l
		if !landing {
			continue
		}
		if cap(p.landing[i]) < l {
			p.landing[i] = make([]float64, l)
		} else {
			p.landing[i] = p.landing[i][:l]
		}
	}
}
