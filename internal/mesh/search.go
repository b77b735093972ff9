package mesh

import "math"

// NodeSearch finds the GLL node nearest a point on the unit sphere. Its
// answer is exactly that of a scan over every element in id order and
// every node in storage order keeping the first strict minimum of
// GreatCircleDist — duplicated edge and corner nodes included — but it
// evaluates that distance only for nodes that can still win.
//
// Each element has a centre, and one angular radius rmax bounds every
// element's nodes around its centre. With bound the distance of the best
// node so far, an element whose centre c has p·c < cos(bound+rmax) lies
// wholly beyond bound, and a node q with p·q < cos(bound) lies beyond it
// too: one dot product rejects either. Both cuts are lowered by dotSlack,
// far more than the rounding of the dot products, the cosines and
// atan2, so a node whose computed distance ties or beats bound is never
// rejected and the first minimum is kept.
type NodeSearch struct {
	m      *Mesh
	centre []Vec3
	rmax   float64
}

const dotSlack = 1e-9

// NewNodeSearch precomputes the element centres and radius of m.
func NewNodeSearch(m *Mesh) *NodeSearch {
	s := &NodeSearch{m: m, centre: make([]Vec3, len(m.Elements))}
	for ei, e := range m.Elements {
		var c Vec3
		for _, q := range e.Pos {
			c = c.Add(q)
		}
		c = c.Normalize()
		s.centre[ei] = c
		for _, q := range e.Pos {
			s.rmax = math.Max(s.rmax, GreatCircleDist(c, q))
		}
	}
	return s
}

// Nearest returns the node nearest the unit vector p. The hint is any
// node, best a close one — in a sweep, the previous point's answer — and
// its distance is the search's first bound; a hint with Elem < 0 is
// replaced by the node of the nearest-centred element closest to p.
func (s *NodeSearch) Nearest(p Vec3, hint NodeRef) NodeRef {
	if hint.Elem < 0 {
		hint = s.guess(p)
	}
	bound := GreatCircleDist(p, s.m.Elements[hint.Elem].Pos[hint.Idx])
	elemCut, nodeCut := s.cuts(bound)
	best := math.Inf(1)
	var at NodeRef
	for ei, e := range s.m.Elements {
		if p.Dot(s.centre[ei]) < elemCut {
			continue
		}
		for n, q := range e.Pos {
			if p.Dot(q) < nodeCut {
				continue
			}
			if d := GreatCircleDist(p, q); d < best {
				best, at = d, NodeRef{Elem: ei, Idx: n}
				if d < bound {
					bound = d
					elemCut, nodeCut = s.cuts(bound)
				}
			}
		}
	}
	return at
}

// cuts returns the element and node dot-product thresholds for bound.
func (s *NodeSearch) cuts(bound float64) (elem, node float64) {
	return cosCut(bound + s.rmax), cosCut(bound)
}

// cosCut is the dot product below which a unit vector lies farther than
// angle from p: cos(angle) less the slack, or -2 when angle reaches π
// (nothing lies farther).
func cosCut(angle float64) float64 {
	if angle >= math.Pi {
		return -2
	}
	return math.Cos(angle) - dotSlack
}

// guess picks, by dot products alone, the element whose centre is
// nearest p and that element's node nearest p.
func (s *NodeSearch) guess(p Vec3) NodeRef {
	at, top := NodeRef{}, math.Inf(-1)
	for ei, c := range s.centre {
		if d := p.Dot(c); d > top {
			at.Elem, top = ei, d
		}
	}
	top = math.Inf(-1)
	for n, q := range s.m.Elements[at.Elem].Pos {
		if d := p.Dot(q); d > top {
			at.Idx, top = n, d
		}
	}
	return at
}
