package mesh

import "math"

// Element is one spectral element of the cubed-sphere grid: an np x np
// tensor grid of GLL nodes on one face patch, with all metric terms
// precomputed. Node (i,j) is stored at index j*np+i (i fastest, along
// alpha).
type Element struct {
	ID     int // global element id, 0..6*ne*ne-1
	Face   int // cube face, 0..5
	FI, FJ int // element position within the face, 0..ne-1
	Alpha0 float64
	Beta0  float64
	DAlpha float64 // element width in alpha and beta (equal)

	Pos    []Vec3    // unit-sphere node positions
	Lon    []float64 // node longitudes
	Lat    []float64 // node latitudes
	Metdet []float64 // sqrt(det g), unit-sphere covariant metric

	// D maps contravariant cube-face vector components (v1, v2) to
	// spherical (zonal, meridional) components; Dinv is its inverse.
	// Covariant components map to spherical with transpose(Dinv).
	D    [][2][2]float64
	Dinv [][2][2]float64

	// DFlat and DinvFlat are the same matrices flattened row-major
	// (node*4 + 2*row + col) so they can be DMA'd into a CPE's LDM as
	// plain float64 buffers by the Sunway execution backends.
	DFlat    []float64
	DinvFlat []float64

	// SphereMP is the per-node quadrature weight contributed by this
	// element: w_i * w_j * (dalpha/2) * (dbeta/2) * metdet. Summing it
	// over all elements sharing a node gives the true nodal integration
	// weight of the continuous GLL grid (HOMME's DSS'd spheremp).
	SphereMP []float64

	// DSSW is SphereMP divided by the assembled nodal weight: the
	// weighted-average coefficients used by direct stiffness summation.
	DSSW []float64

	GlobalNode []int // global unique-node id of each local node

	EdgeNeighbors  []int // element ids sharing a full edge (np nodes)
	ShareNeighbors []int // element ids sharing at least one node
}

// buildElement computes geometry and metric terms for element (face,fi,fj)
// of an ne x ne face using GLL nodes xi and weights wt.
func buildElement(id, face, fi, fj, ne int, xi, wt []float64) *Element {
	np := len(xi)
	dA := (math.Pi / 2) / float64(ne)
	e := &Element{
		ID: id, Face: face, FI: fi, FJ: fj,
		Alpha0: -math.Pi/4 + float64(fi)*dA,
		Beta0:  -math.Pi/4 + float64(fj)*dA,
		DAlpha: dA,
	}
	n := np * np
	e.Pos = make([]Vec3, n)
	e.Lon = make([]float64, n)
	e.Lat = make([]float64, n)
	e.Metdet = make([]float64, n)
	e.D = make([][2][2]float64, n)
	e.Dinv = make([][2][2]float64, n)
	e.DFlat = make([]float64, 4*n)
	e.DinvFlat = make([]float64, 4*n)
	e.SphereMP = make([]float64, n)
	e.DSSW = make([]float64, n)
	e.GlobalNode = make([]int, n)

	for j := 0; j < np; j++ {
		beta := e.Beta0 + (xi[j]+1)/2*dA
		for i := 0; i < np; i++ {
			alpha := e.Alpha0 + (xi[i]+1)/2*dA
			k := j*np + i
			p := CubeToSphere(face, alpha, beta)
			e.Pos[k] = p
			e.Lon[k], e.Lat[k] = LonLat(p)

			tA, tB := SphereTangents(face, alpha, beta)
			east, north := SphericalBasis(p)
			d := [2][2]float64{
				{tA.Dot(east), tB.Dot(east)},
				{tA.Dot(north), tB.Dot(north)},
			}
			det := d[0][0]*d[1][1] - d[0][1]*d[1][0]
			e.D[k] = d
			e.Dinv[k] = [2][2]float64{
				{d[1][1] / det, -d[0][1] / det},
				{-d[1][0] / det, d[0][0] / det},
			}
			for r := 0; r < 2; r++ {
				for c := 0; c < 2; c++ {
					e.DFlat[4*k+2*r+c] = e.D[k][r][c]
					e.DinvFlat[4*k+2*r+c] = e.Dinv[k][r][c]
				}
			}
			// metdet = |det D|: the covariant metric is g = D^T D since
			// the spherical basis is orthonormal.
			e.Metdet[k] = math.Abs(det)
			e.SphereMP[k] = wt[i] * wt[j] * (dA / 2) * (dA / 2) * e.Metdet[k]
		}
	}
	return e
}

// SingleElement builds one element of an ne-resolution grid without
// assembling the whole mesh — the only way to touch the geometry of the
// paper's ne4096 (750 m) configuration in-process, whose full grid has
// 100,663,296 elements. Global node ids and neighbour lists are not
// populated (they require assembly); all metric terms are.
func SingleElement(ne, np, face, fi, fj int) *Element {
	if fi < 0 || fi >= ne || fj < 0 || fj >= ne || face < 0 || face >= NFaces {
		panic("mesh: SingleElement coordinates out of range")
	}
	xi, wt := GLL(np)
	return buildElement(face*ne*ne+fj*ne+fi, face, fi, fj, ne, xi, wt)
}
