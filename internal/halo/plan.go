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

// ChainTerm is one link of a shared node's canonical summation chain: a
// single element copy, either held locally or arriving from a neighbour
// message. The chain lists every copy of the node in mesh.NodeElems
// order (ascending element id), so summing it term by term reproduces
// the serial DSS bit for bit on every rank that holds the node.
type ChainTerm struct {
	Local bool
	Ref   int // Local: index into Group.Refs
	Nb    int // !Local: index into Plan.Neighbors
	Pos   int // !Local: entry index within that neighbour's message
}

// Group is one shared GLL node as seen from this rank: the local copies
// that contribute to it and their DSS weights, both in mesh.NodeElems
// order. Remote groups additionally carry the full canonical chain over
// local and received copies.
type Group struct {
	Refs   []LocalRef
	W      []float64 // DSSW weight of each local copy
	Slot   int       // index of this group in Plan.Groups
	Remote bool      // true when other ranks also hold copies
	Chain  []ChainTerm
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

	scratch []float64 // the [levels] accumulation strip of one (group, field), grown on demand

	// Persistent per-neighbour exchange buffers and request slots, grown
	// on demand like scratch and reused every timestep so the steady-state
	// exchange performs no heap allocation (HOMME likewise allocates its
	// edge buffers once per schedule).
	sendBufs [][]float64
	recvBufs [][]float64
	staged   [][]float64 // DSSOriginal's modeled receive->pack staging copy
	sendReqs []mpirt.Request
	recvReqs []mpirt.Request
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
		if remote {
			// Canonical chain over every copy, and per-neighbour message
			// positions advanced in the same canonical order.
			localIdx := 0
			touched := map[int]bool{}
			for _, r := range refs {
				if rankOf[r.Elem] == rank {
					g.Chain = append(g.Chain, ChainTerm{Local: true, Ref: localIdx})
					localIdx++
					continue
				}
				ni := nbIndex[rankOf[r.Elem]]
				nb := &p.Neighbors[ni]
				g.Chain = append(g.Chain, ChainTerm{Nb: ni, Pos: nb.RecvLen})
				nb.RecvLen++
				touched[ni] = true
			}
			// Every local copy of the node is sent to every neighbour
			// that holds it, in chain (NodeElems) order.
			for ni := range touched {
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

func (p *Plan) ensureScratch(n int) []float64 {
	if cap(p.scratch) < n {
		p.scratch = make([]float64, n)
	}
	return p.scratch[:n]
}

// ensureBufs sizes the persistent per-neighbour send/receive/staging
// buffers and request slots for an exchange of nf fields with `stride`
// values per node. Buffers only ever grow, so after the first exchange
// of a given shape the hot path is allocation-free.
func (p *Plan) ensureBufs(nf, stride int) {
	n := len(p.Neighbors)
	if len(p.sendBufs) < n {
		p.sendBufs = make([][]float64, n)
		p.recvBufs = make([][]float64, n)
		p.staged = make([][]float64, n)
		p.sendReqs = make([]mpirt.Request, n)
		p.recvReqs = make([]mpirt.Request, n)
	}
	for i := range p.Neighbors {
		nb := &p.Neighbors[i]
		if sl := len(nb.SendGroup) * nf * stride; cap(p.sendBufs[i]) < sl {
			p.sendBufs[i] = make([]float64, sl)
		} else {
			p.sendBufs[i] = p.sendBufs[i][:sl]
		}
		rl := nb.RecvLen * nf * stride
		if cap(p.recvBufs[i]) < rl {
			p.recvBufs[i] = make([]float64, rl)
		} else {
			p.recvBufs[i] = p.recvBufs[i][:rl]
		}
		if cap(p.staged[i]) < rl {
			p.staged[i] = make([]float64, rl)
		} else {
			p.staged[i] = p.staged[i][:rl]
		}
	}
}
