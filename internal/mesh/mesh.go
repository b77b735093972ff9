package mesh

import (
	"fmt"
	"math"
	"sort"
)

// NodeRef locates one element-local copy of a global node.
type NodeRef struct {
	Elem int // element id
	Idx  int // local node index, j*np+i
}

// Mesh is the assembled cubed-sphere spectral-element grid.
type Mesh struct {
	Ne int // elements along each cube-face edge
	Np int // GLL nodes along each element edge (CAM-SE uses 4)

	Xi        []float64   // GLL nodes on [-1,1]
	Wt        []float64   // GLL weights
	Deriv     [][]float64 // GLL differentiation matrix
	DerivFlat []float64   // Deriv flattened row-major for LDM staging

	Elements []*Element

	NNodes    int         // count of globally unique GLL nodes
	NodeElems [][]NodeRef // for each global node, every (element, local index) copy
}

// NElems returns the total element count, 6*ne*ne.
func (m *Mesh) NElems() int { return len(m.Elements) }

// quantKey quantizes a sphere position for exact node matching across
// faces. Equiangular GLL nodes on shared cube edges coincide to machine
// precision; 1e-9 radians of slack absorbs rounding while staying far
// below any inter-node distance (the finest supported grid, ne=4096 with
// np=4, keeps nodes > 1e-4 radians apart).
type quantKey struct{ x, y, z int64 }

func quantize(p Vec3) quantKey {
	const s = 1e9
	return quantKey{int64(math.Round(p[0] * s)), int64(math.Round(p[1] * s)), int64(math.Round(p[2] * s))}
}

// New builds the full cubed-sphere mesh with ne x ne elements per face
// and np x np GLL nodes per element, assembles the global node numbering,
// DSS weights, and element connectivity.
func New(ne, np int) *Mesh {
	if ne < 1 {
		panic(fmt.Sprintf("mesh: ne must be positive, got %d", ne))
	}
	if np < 2 {
		panic(fmt.Sprintf("mesh: np must be >= 2, got %d", np))
	}
	xi, wt := GLL(np)
	m := &Mesh{
		Ne: ne, Np: np,
		Xi: xi, Wt: wt,
		Deriv:    DerivativeMatrix(np),
		Elements: make([]*Element, 0, NFaces*ne*ne),
	}
	m.DerivFlat = make([]float64, np*np)
	for i := 0; i < np; i++ {
		copy(m.DerivFlat[i*np:(i+1)*np], m.Deriv[i])
	}
	id := 0
	for f := 0; f < NFaces; f++ {
		for fj := 0; fj < ne; fj++ {
			for fi := 0; fi < ne; fi++ {
				m.Elements = append(m.Elements, buildElement(id, f, fi, fj, ne, xi, wt))
				id++
			}
		}
	}
	m.assembleNodes()
	m.assembleConnectivity()
	return m
}

// assembleNodes assigns global node ids by geometric position and
// computes the DSS averaging weights.
func (m *Mesh) assembleNodes() {
	np := m.Np
	nodeOf := make(map[quantKey]int)
	for _, e := range m.Elements {
		for k := 0; k < np*np; k++ {
			key := quantize(e.Pos[k])
			gid, ok := nodeOf[key]
			if !ok {
				gid = len(m.NodeElems)
				nodeOf[key] = gid
				m.NodeElems = append(m.NodeElems, nil)
			}
			e.GlobalNode[k] = gid
			m.NodeElems[gid] = append(m.NodeElems[gid], NodeRef{Elem: e.ID, Idx: k})
		}
	}
	m.NNodes = len(m.NodeElems)

	// Assembled nodal weight = sum of SphereMP over every element copy;
	// DSSW is each copy's share, so DSS(field) = sum DSSW*field over copies.
	for _, refs := range m.NodeElems {
		total := 0.0
		for _, r := range refs {
			total += m.Elements[r.Elem].SphereMP[r.Idx]
		}
		for _, r := range refs {
			e := m.Elements[r.Elem]
			e.DSSW[r.Idx] = e.SphereMP[r.Idx] / total
		}
	}
}

// assembleConnectivity derives edge and node-sharing neighbour lists from
// the global node numbering. Two elements are edge neighbours when they
// share np nodes (a full GLL edge), and share neighbours when they share
// at least one (corners join 3 or 4 elements on the cubed sphere).
func (m *Mesh) assembleConnectivity() {
	shared := make(map[[2]int]int) // (low id, high id) -> shared node count
	for _, refs := range m.NodeElems {
		for a := 0; a < len(refs); a++ {
			for b := a + 1; b < len(refs); b++ {
				i, j := refs[a].Elem, refs[b].Elem
				if i == j {
					continue // an element never shares a node with itself
				}
				if i > j {
					i, j = j, i
				}
				shared[[2]int{i, j}]++
			}
		}
	}
	for pair, count := range shared {
		a, b := m.Elements[pair[0]], m.Elements[pair[1]]
		a.ShareNeighbors = append(a.ShareNeighbors, b.ID)
		b.ShareNeighbors = append(b.ShareNeighbors, a.ID)
		if count >= m.Np {
			a.EdgeNeighbors = append(a.EdgeNeighbors, b.ID)
			b.EdgeNeighbors = append(b.EdgeNeighbors, a.ID)
		}
	}
	for _, e := range m.Elements {
		sort.Ints(e.EdgeNeighbors)
		sort.Ints(e.ShareNeighbors)
	}
}

// DSS applies direct stiffness summation to a per-element nodal scalar
// field laid out as field[elem][node]: every shared node is replaced by
// the SphereMP-weighted average of its element copies, making the field
// C0-continuous. This is the serial whole-mesh reference; the
// distributed version lives in internal/halo.
func (m *Mesh) DSS(field [][]float64) {
	for _, refs := range m.NodeElems {
		if len(refs) == 1 {
			continue
		}
		avg := 0.0
		for _, r := range refs {
			avg += m.Elements[r.Elem].DSSW[r.Idx] * field[r.Elem][r.Idx]
		}
		for _, r := range refs {
			field[r.Elem][r.Idx] = avg
		}
	}
}

// Integrate computes the global integral of a per-element nodal field
// using the assembled GLL quadrature (unit sphere; multiply by
// EarthRadius^2 for physical area integrals). Shared nodes are counted
// once via the DSSW partition of unity.
func (m *Mesh) Integrate(field [][]float64) float64 {
	total := 0.0
	for ei, e := range m.Elements {
		for k, w := range e.SphereMP {
			total += w * field[ei][k]
		}
	}
	return total
}
