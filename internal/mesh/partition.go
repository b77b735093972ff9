package mesh

import (
	"fmt"
	"sort"
)

// mortonInterleave interleaves the low 16 bits of x and y, giving the
// Z-order (Morton) index used to order elements within a cube face.
func mortonInterleave(x, y uint32) uint64 {
	spread := func(v uint32) uint64 {
		z := uint64(v) & 0xFFFF
		z = (z | z<<16) & 0x0000FFFF0000FFFF
		z = (z | z<<8) & 0x00FF00FF00FF00FF
		z = (z | z<<4) & 0x0F0F0F0F0F0F0F0F
		z = (z | z<<2) & 0x3333333333333333
		z = (z | z<<1) & 0x5555555555555555
		return z
	}
	return spread(x) | spread(y)<<1
}

// hilbertIndex maps (x,y) in an n×n grid (n a power of two) to its
// distance along the Hilbert curve. Unlike Morton order, consecutive
// Hilbert indices are always edge-adjacent cells, so contiguous chunks
// of the curve have no long-range jumps and their boundaries — the halo
// cut — hug the surface-to-volume lower bound tighter.
func hilbertIndex(n, x, y uint32) uint64 {
	var d uint64
	for s := n / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant so the sub-curve enters/exits correctly.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// orderByKey returns element ids sorted by an arbitrary curve key.
func (m *Mesh) orderByKey(key func(e *Element) uint64) []int {
	type keyed struct {
		key uint64
		id  int
	}
	ks := make([]keyed, m.NElems())
	for i, e := range m.Elements {
		ks[i] = keyed{key: key(e), id: e.ID}
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	order := make([]int, len(ks))
	for i, k := range ks {
		order[i] = k.id
	}
	return order
}

// SFCOrder returns element ids ordered along a space-filling curve:
// face-major, Z-order (Morton) within each face. HOMME partitions
// elements along a space-filling curve for exactly the reason we do —
// contiguous chunks of the curve are compact patches with short
// boundaries, which keeps halo-exchange volume near the
// surface-to-volume lower bound.
func (m *Mesh) SFCOrder() []int {
	return m.orderByKey(func(e *Element) uint64 {
		return uint64(e.Face)<<40 | mortonInterleave(uint32(e.FI), uint32(e.FJ))
	})
}

// HilbertOrder returns element ids face-major, Hilbert-ordered within
// each face. The Hilbert curve never jumps: successive elements share an
// edge, so curve chunks are more compact than Morton's (whose quadrant
// seams produce long diagonal jumps) and the resulting halo cut is
// usually smaller.
func (m *Mesh) HilbertOrder() []int {
	// Smallest power of two covering the ne×ne face grid.
	pow2 := uint32(1)
	for int(pow2) < m.Ne {
		pow2 *= 2
	}
	return m.orderByKey(func(e *Element) uint64 {
		return uint64(e.Face)<<40 | hilbertIndex(pow2, uint32(e.FI), uint32(e.FJ))
	})
}

// partitionOrders lists the candidate element orderings a partition may
// be chopped along, best-first on ties.
func (m *Mesh) partitionOrders() [][]int {
	return [][]int{m.HilbertOrder(), m.SFCOrder()}
}

// chopOrder cuts an element ordering into nranks contiguous chunks whose
// sizes differ by at most one, returning rankOf[elemID] = rank.
func chopOrder(order []int, nranks int) []int {
	n := len(order)
	rankOf := make([]int, n)
	base, extra := n/nranks, n%nranks
	pos := 0
	for r := 0; r < nranks; r++ {
		size := base
		if r < extra {
			size++
		}
		for k := 0; k < size; k++ {
			rankOf[order[pos]] = r
			pos++
		}
	}
	return rankOf
}

// Partition assigns every element to one of nranks ranks by chopping a
// space-filling curve into contiguous chunks whose sizes differ by at
// most one element, and returns rankOf[elemID] = rank. Both candidate
// curves (Hilbert and Morton) are chopped and the one with the smaller
// edge cut wins, so by construction the chosen layout's halo cut never
// exceeds the historical Morton chop. Which curve wins only moves
// elements between ranks — trajectories are partition-invariant bit for
// bit thanks to the canonical per-copy DSS and canonical mass fixer.
func (m *Mesh) Partition(nranks int) ([]int, error) {
	n := m.NElems()
	if nranks < 1 {
		return nil, fmt.Errorf("mesh: partition into %d ranks", nranks)
	}
	if nranks > n {
		return nil, fmt.Errorf("mesh: %d ranks exceed %d elements", nranks, n)
	}
	var best []int
	bestCut := -1
	for _, order := range m.partitionOrders() {
		rankOf := chopOrder(order, nranks)
		if cut := m.CutEdges(rankOf); best == nil || cut < bestCut {
			best, bestCut = rankOf, cut
		}
	}
	return best, nil
}

// orderBreaks counts rank-change points walking rankOf along an element
// ordering — zero extra breaks beyond nranks-1 means the partition is a
// contiguous chop of that ordering.
func orderBreaks(order, rankOf []int) int {
	breaks := 0
	for i := 1; i < len(order); i++ {
		if rankOf[order[i]] != rankOf[order[i-1]] {
			breaks++
		}
	}
	return breaks
}

// ShrinkPartition redistributes a dead rank's elements over the
// survivors and renumbers ranks above it down by one, returning the new
// rankOf over nranks-1 ranks. The walk follows whichever candidate curve
// the partition is most contiguous under (fewest rank-change points), so
// a Hilbert chop shrinks along the Hilbert curve and a Morton chop along
// Morton. Each orphaned element goes to the new rank of its nearest
// preceding survivor-owned element along that curve (the following one
// for a dead rank at the head), so a contiguous partition stays
// contiguous and the extra halo surface of the degraded layout stays
// small.
func (m *Mesh) ShrinkPartition(rankOf []int, dead, nranks int) ([]int, error) {
	if len(rankOf) != m.NElems() {
		return nil, fmt.Errorf("mesh: rankOf covers %d of %d elements", len(rankOf), m.NElems())
	}
	if dead < 0 || dead >= nranks {
		return nil, fmt.Errorf("mesh: shrink rank %d of %d", dead, nranks)
	}
	if nranks < 2 {
		return nil, fmt.Errorf("mesh: cannot shrink a %d-rank partition", nranks)
	}
	renum := func(r int) int {
		if r > dead {
			return r - 1
		}
		return r
	}
	var order []int
	bestBreaks := -1
	for _, cand := range m.partitionOrders() {
		if b := orderBreaks(cand, rankOf); order == nil || b < bestBreaks {
			order, bestBreaks = cand, b
		}
	}
	out := make([]int, len(rankOf))
	for i := range out {
		out[i] = -1
	}
	last := -1
	for _, id := range order {
		if rankOf[id] != dead {
			last = renum(rankOf[id])
		}
		out[id] = last
	}
	// Orphans at the head of the curve inherit the first survivor after
	// them.
	first := -1
	for _, id := range order {
		if rankOf[id] != dead {
			first = renum(rankOf[id])
			break
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("mesh: shrink would leave no survivor elements")
	}
	for _, id := range order {
		if out[id] < 0 {
			out[id] = first
		}
	}
	return out, nil
}

// CutEdges counts element edges crossing rank boundaries under a
// partition — the communication volume proxy used by the machine model
// and by partition-quality tests.
func (m *Mesh) CutEdges(rankOf []int) int {
	cut := 0
	for _, e := range m.Elements {
		for _, nb := range e.EdgeNeighbors {
			if nb > e.ID && rankOf[nb] != rankOf[e.ID] {
				cut++
			}
		}
	}
	return cut
}
