package mesh

import (
	"math"
	"testing"
)

func TestSurfaceAreaIs4Pi(t *testing.T) {
	// GLL quadrature of the curved metric converges spectrally to 4*pi;
	// assert monotone convergence and a tight error at ne=8.
	var prev float64 = math.Inf(1)
	for _, ne := range []int{1, 2, 4, 8} {
		m := New(ne, 4)
		rel := math.Abs(m.SurfaceArea()-4*math.Pi) / (4 * math.Pi)
		if rel > prev {
			t.Errorf("ne=%d: area error %g did not shrink (prev %g)", ne, rel, prev)
		}
		prev = rel
	}
	if prev > 1e-8 {
		t.Errorf("ne=8: area error %g, want < 1e-8", prev)
	}
}

func TestElementCount(t *testing.T) {
	// Table 2 of the paper: ne64 has 64*64*6 = 24,576 elements.
	m := New(4, 4)
	if m.NElems() != 96 {
		t.Fatalf("ne=4: %d elements, want 96", m.NElems())
	}
	// Verify the Table 2 arithmetic without building huge meshes.
	for _, tc := range []struct{ ne, want int }{
		{64, 24576}, {256, 393216}, {512, 1572864},
		{1024, 6291456}, {2048, 25165824}, {4096, 100663296},
	} {
		if got := tc.ne * tc.ne * 6; got != tc.want {
			t.Errorf("ne=%d: %d elements, want %d (paper Table 2)", tc.ne, got, tc.want)
		}
	}
}

func TestGlobalNodeCount(t *testing.T) {
	// A continuous quad grid on a closed surface: V = F*(np-1)^2 + E*(np-2)...
	// easier from Euler's formula: for the cubed sphere with N=6*ne^2
	// quads, unique GLL nodes = N*(np-1)^2 + 2.
	for _, ne := range []int{1, 2, 3, 4} {
		for _, np := range []int{2, 4} {
			m := New(ne, np)
			want := 6*ne*ne*(np-1)*(np-1) + 2
			if m.NNodes != want {
				t.Errorf("ne=%d np=%d: %d global nodes, want %d", ne, np, m.NNodes, want)
			}
		}
	}
}

func TestNodeMultiplicity(t *testing.T) {
	m := New(4, 4)
	// Every global node is shared by 1 (interior), 2 (edge), 3 (cube
	// corner) or 4 (regular corner) elements.
	counts := map[int]int{}
	for _, refs := range m.NodeElems {
		counts[len(refs)]++
	}
	for mult := range counts {
		if mult < 1 || mult > 4 {
			t.Fatalf("impossible node multiplicity %d", mult)
		}
	}
	// Exactly 8 cube corners have multiplicity 3.
	if counts[3] != 8 {
		t.Errorf("multiplicity-3 nodes = %d, want 8 (cube corners)", counts[3])
	}
}

func TestEdgeNeighborCount(t *testing.T) {
	// On a closed quad mesh every element has exactly 4 edge neighbours.
	m := New(4, 4)
	for _, e := range m.Elements {
		if len(e.EdgeNeighbors) != 4 {
			t.Fatalf("element %d (face %d, %d,%d) has %d edge neighbours",
				e.ID, e.Face, e.FI, e.FJ, len(e.EdgeNeighbors))
		}
	}
}

func TestShareNeighborCount(t *testing.T) {
	// Away from cube corners each element touches 8 others; elements at
	// a cube corner touch 7 (three faces meet, no diagonal partner).
	m := New(4, 4)
	for _, e := range m.Elements {
		n := len(e.ShareNeighbors)
		if n != 8 && n != 7 {
			t.Fatalf("element %d has %d share neighbours", e.ID, n)
		}
	}
}

func TestDSSWPartitionOfUnity(t *testing.T) {
	m := New(3, 4)
	for _, refs := range m.NodeElems {
		sum := 0.0
		for _, r := range refs {
			sum += m.Elements[r.Elem].DSSW[r.Idx]
		}
		if math.Abs(sum-1) > 1e-13 {
			t.Fatalf("DSSW sums to %v on a node", sum)
		}
	}
}

func TestDSSMakesFieldContinuous(t *testing.T) {
	m := New(3, 4)
	np := m.Np
	// A discontinuous per-element field: element id as a constant.
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, np*np)
		for k := range field[i] {
			field[i][k] = float64(i)
		}
	}
	m.DSS(field)
	for gid, refs := range m.NodeElems {
		first := field[refs[0].Elem][refs[0].Idx]
		for _, r := range refs[1:] {
			if math.Abs(field[r.Elem][r.Idx]-first) > 1e-12 {
				t.Fatalf("node %d not continuous after DSS", gid)
			}
		}
	}
}

func TestDSSIdempotent(t *testing.T) {
	m := New(2, 4)
	np := m.Np
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, np*np)
		for k := range field[i] {
			field[i][k] = math.Sin(float64(i*np*np + k))
		}
	}
	m.DSS(field)
	snapshot := make([][]float64, len(field))
	for i := range field {
		snapshot[i] = append([]float64(nil), field[i]...)
	}
	m.DSS(field)
	for i := range field {
		for k := range field[i] {
			diff := math.Abs(field[i][k] - snapshot[i][k])
			// DSSW sums to 1 only to rounding, so re-averaging equal
			// copies drifts by at most a few ULP.
			if diff > 1e-14*(1+math.Abs(snapshot[i][k])) {
				t.Fatalf("DSS not idempotent at elem %d node %d: drift %g", i, k, diff)
			}
		}
	}
}

func TestDSSPreservesIntegral(t *testing.T) {
	// SphereMP-weighted DSS is an L2 projection onto continuous fields:
	// the global integral must be preserved exactly.
	m := New(3, 4)
	np := m.Np
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, np*np)
		for k := range field[i] {
			field[i][k] = math.Cos(float64(3*i)) * float64(k%np)
		}
	}
	before := m.Integrate(field)
	m.DSS(field)
	after := m.Integrate(field)
	if math.Abs(before-after) > 1e-12*math.Abs(before) {
		t.Fatalf("DSS changed the integral: %v -> %v", before, after)
	}
}

func TestIntegrateConstant(t *testing.T) {
	m := New(2, 4)
	np := m.Np
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, np*np)
		for k := range field[i] {
			field[i][k] = 2.5
		}
	}
	got := m.Integrate(field)
	want := 2.5 * 4 * math.Pi
	// Quadrature of the curved metric at ne=2 is accurate to ~3e-6
	// relative (see TestSurfaceAreaIs4Pi); the integral of a constant
	// inherits exactly that error.
	if math.Abs(got-want) > 3e-6*want {
		t.Fatalf("integral = %v, want %v", got, want)
	}
}

func TestLonLatRanges(t *testing.T) {
	m := New(2, 4)
	for _, e := range m.Elements {
		for k := range e.Lon {
			if e.Lon[k] < 0 || e.Lon[k] >= 2*math.Pi+1e-12 {
				t.Fatalf("lon out of range: %v", e.Lon[k])
			}
			if e.Lat[k] < -math.Pi/2-1e-12 || e.Lat[k] > math.Pi/2+1e-12 {
				t.Fatalf("lat out of range: %v", e.Lat[k])
			}
			// Positions must be on the unit sphere.
			if math.Abs(e.Pos[k].Norm()-1) > 1e-13 {
				t.Fatalf("node off the unit sphere")
			}
		}
	}
}

func TestVectorTransformRoundTrip(t *testing.T) {
	// D * Dinv = identity at every node.
	m := New(2, 4)
	for _, e := range m.Elements {
		for k := range e.D {
			d, di := e.D[k], e.Dinv[k]
			id := [2][2]float64{
				{d[0][0]*di[0][0] + d[0][1]*di[1][0], d[0][0]*di[0][1] + d[0][1]*di[1][1]},
				{d[1][0]*di[0][0] + d[1][1]*di[1][0], d[1][0]*di[0][1] + d[1][1]*di[1][1]},
			}
			if math.Abs(id[0][0]-1) > 1e-12 || math.Abs(id[1][1]-1) > 1e-12 ||
				math.Abs(id[0][1]) > 1e-12 || math.Abs(id[1][0]) > 1e-12 {
				t.Fatalf("D*Dinv != I at elem %d node %d: %v", e.ID, k, id)
			}
		}
	}
}

func TestMetdetMatchesDDeterminant(t *testing.T) {
	m := New(2, 4)
	for _, e := range m.Elements {
		for k := range e.D {
			d := e.D[k]
			det := math.Abs(d[0][0]*d[1][1] - d[0][1]*d[1][0])
			if math.Abs(det-e.Metdet[k]) > 1e-13 {
				t.Fatalf("metdet mismatch at elem %d node %d", e.ID, k)
			}
		}
	}
}

func TestGreatCircleDist(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if d := GreatCircleDist(a, b); math.Abs(d-math.Pi/2) > 1e-14 {
		t.Fatalf("quarter circle = %v", d)
	}
	if d := GreatCircleDist(a, a); d != 0 {
		t.Fatalf("zero distance = %v", d)
	}
	c := Vec3{-1, 0, 0}
	if d := GreatCircleDist(a, c); math.Abs(d-math.Pi) > 1e-14 {
		t.Fatalf("antipodal = %v", d)
	}
}

func TestSphericalBasisOrthonormal(t *testing.T) {
	pts := []Vec3{
		{1, 0, 0}, {0, 1, 0},
		Vec3{1, 1, 1}.Normalize(), Vec3{-0.3, 0.2, 0.9}.Normalize(),
	}
	for _, p := range pts {
		e, n := SphericalBasis(p)
		if math.Abs(e.Norm()-1) > 1e-13 || math.Abs(n.Norm()-1) > 1e-13 {
			t.Fatalf("basis not unit at %v", p)
		}
		if math.Abs(e.Dot(n)) > 1e-13 {
			t.Fatalf("basis not orthogonal at %v", p)
		}
		if math.Abs(e.Dot(p)) > 1e-13 || math.Abs(n.Dot(p)) > 1e-13 {
			t.Fatalf("basis not tangent at %v", p)
		}
	}
}

func TestNe30RealGridBuilds(t *testing.T) {
	// The paper's ne30 (100 km CAM grid) is buildable in-process: 5,400
	// elements, 48,602 unique GLL nodes — the figure quoted in §8.2's
	// validation setup ("horizontal resolution NE30 (48,602 grid
	// points)").
	if testing.Short() {
		t.Skip("ne30 build takes a moment")
	}
	m := New(30, 4)
	if m.NElems() != 5400 {
		t.Fatalf("ne30 elements = %d, want 5400", m.NElems())
	}
	if m.NNodes != 48602 {
		t.Fatalf("ne30 unique nodes = %d, paper says 48,602", m.NNodes)
	}
	if rel := math.Abs(m.SurfaceArea()-4*math.Pi) / (4 * math.Pi); rel > 1e-10 {
		t.Errorf("ne30 area error %g", rel)
	}
}

func TestSingleElementUltraHighRes(t *testing.T) {
	// One element of the 750-m ne4096 grid: geometry and metric terms
	// must be healthy at that scale (element width ~0.38 mrad, node
	// spacing ~750 m on the sphere).
	e := SingleElement(4096, 4, 0, 2048, 2048)
	if e.DAlpha != (math.Pi/2)/4096 {
		t.Fatalf("element width %g", e.DAlpha)
	}
	for k := range e.Metdet {
		if e.Metdet[k] <= 0 || math.IsNaN(e.Metdet[k]) {
			t.Fatalf("bad metdet at node %d: %g", k, e.Metdet[k])
		}
		if math.Abs(e.Pos[k].Norm()-1) > 1e-12 {
			t.Fatalf("node off sphere")
		}
	}
	// Node spacing in meters: between the two middle GLL nodes.
	d := GreatCircleDist(e.Pos[5], e.Pos[6]) * 6.376e6
	if d < 300 || d > 1500 {
		t.Errorf("ne4096 interior node spacing %v m, expected the 750-m class", d)
	}
	// D*Dinv = I even at extreme aspect.
	di, dm := e.Dinv[5], e.D[5]
	if math.Abs(dm[0][0]*di[0][0]+dm[0][1]*di[1][0]-1) > 1e-10 {
		t.Error("metric inverse degraded at ne4096")
	}
}

func TestSingleElementMatchesAssembledMesh(t *testing.T) {
	// SingleElement must agree exactly with the assembled mesh's element.
	m := New(4, 4)
	for _, ref := range []*Element{m.Elements[0], m.Elements[37], m.Elements[95]} {
		e := SingleElement(4, 4, ref.Face, ref.FI, ref.FJ)
		for k := range ref.Metdet {
			if e.Metdet[k] != ref.Metdet[k] || e.Pos[k] != ref.Pos[k] {
				t.Fatalf("SingleElement mismatch at elem %d node %d", ref.ID, k)
			}
		}
	}
}

// SurfaceArea returns the quadrature measure of the whole grid, which
// must equal 4*pi on the unit sphere — the standard mesh sanity check.
func (m *Mesh) SurfaceArea() float64 {
	total := 0.0
	for _, e := range m.Elements {
		for _, w := range e.SphereMP {
			total += w
		}
	}
	return total
}
