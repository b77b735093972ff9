package dycore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swcam/internal/mesh"
)

// evalOnMesh fills a per-element slab field from an analytic function of
// (lon, lat).
func evalOnMesh(m *mesh.Mesh, f func(lon, lat float64) float64) [][]float64 {
	out := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		out[i] = make([]float64, m.Np*m.Np)
		for n := range out[i] {
			out[i][n] = f(e.Lon[n], e.Lat[n])
		}
	}
	return out
}

// maxRelErr compares a computed per-element field to an analytic one,
// normalizing by the max magnitude of the analytic field.
func maxRelErr(m *mesh.Mesh, got [][]float64, want func(lon, lat float64) float64) float64 {
	scale := 0.0
	for _, e := range m.Elements {
		for n := range e.Lon {
			v := math.Abs(want(e.Lon[n], e.Lat[n]))
			if v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	maxe := 0.0
	for i, e := range m.Elements {
		for n := range e.Lon {
			err := math.Abs(got[i][n]-want(e.Lon[n], e.Lat[n])) / scale
			if err > maxe {
				maxe = err
			}
		}
	}
	return maxe
}

func TestGradientOfSinLat(t *testing.T) {
	// f = sin(lat): grad = (0, cos(lat)/a).
	m := mesh.New(6, 4)
	f := evalOnMesh(m, func(lon, lat float64) float64 { return math.Sin(lat) })
	gx := make([][]float64, m.NElems())
	gy := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		gx[i] = make([]float64, m.Np*m.Np)
		gy[i] = make([]float64, m.Np*m.Np)
		GradientSphere(e, m.DerivFlat, m.Np, f[i], gx[i], gy[i])
	}
	if err := maxRelErr(m, gy, func(lon, lat float64) float64 { return math.Cos(lat) * Rrearth }); err > 2e-3 {
		t.Errorf("meridional gradient rel err %g", err)
	}
	if err := maxRelErr(m, gx, func(lon, lat float64) float64 { return 0 }); err > 1e-10/Rrearth {
		// gx is compared against zero, so maxRelErr normalized by 1;
		// require it small relative to the gy scale instead.
		max := 0.0
		for i := range gx {
			for _, v := range gx[i] {
				if math.Abs(v) > max {
					max = math.Abs(v)
				}
			}
		}
		if max > 2e-3*Rrearth {
			t.Errorf("zonal gradient should vanish, max %g", max)
		}
	}
}

func TestGradientOfZonalWave(t *testing.T) {
	// f = cos(lat)*sin(lon): d f/dlon / (a cos lat) = cos(lon)/a.
	m := mesh.New(8, 4)
	f := evalOnMesh(m, func(lon, lat float64) float64 { return math.Cos(lat) * math.Sin(lon) })
	gx := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		gx[i] = make([]float64, m.Np*m.Np)
		gy := make([]float64, m.Np*m.Np)
		GradientSphere(e, m.DerivFlat, m.Np, f[i], gx[i], gy)
	}
	if err := maxRelErr(m, gx, func(lon, lat float64) float64 { return math.Cos(lon) * Rrearth }); err > 1e-3 {
		t.Errorf("zonal gradient rel err %g", err)
	}
}

func TestDivergenceOfSolidBodyIsZero(t *testing.T) {
	// Solid-body rotation u = U0 cos(lat), v = 0 is nondivergent.
	const U0 = 40.0
	m := mesh.New(6, 4)
	u := evalOnMesh(m, func(lon, lat float64) float64 { return U0 * math.Cos(lat) })
	zero := evalOnMesh(m, func(lon, lat float64) float64 { return 0 })
	for i, e := range m.Elements {
		div := make([]float64, m.Np*m.Np)
		DivergenceSphere(e, m.DerivFlat, m.Np, u[i], zero[i], div)
		for n, d := range div {
			// Truncation error of the np=4 discretization: ~6e-3 of the
			// velocity scale over the radius at ne=6, converging at 3rd
			// order (verified in TestLaplacianSpectralConvergence).
			if math.Abs(d) > 1e-2*U0*Rrearth {
				t.Fatalf("elem %d node %d: div = %g", i, n, d)
			}
		}
	}
}

func TestVorticityOfSolidBody(t *testing.T) {
	// u = U0 cos(lat): vort = 2 U0 sin(lat) / a.
	const U0 = 40.0
	m := mesh.New(6, 4)
	u := evalOnMesh(m, func(lon, lat float64) float64 { return U0 * math.Cos(lat) })
	zero := evalOnMesh(m, func(lon, lat float64) float64 { return 0 })
	vort := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		vort[i] = make([]float64, m.Np*m.Np)
		VorticitySphere(e, m.DerivFlat, m.Np, u[i], zero[i], vort[i])
	}
	if err := maxRelErr(m, vort, func(lon, lat float64) float64 {
		return 2 * U0 * math.Sin(lat) * Rrearth
	}); err > 1e-2 {
		t.Errorf("vorticity rel err %g", err)
	}
}

func TestDivergenceTheorem(t *testing.T) {
	// The integral of a divergence over the closed sphere vanishes.
	m := mesh.New(4, 4)
	u := evalOnMesh(m, func(lon, lat float64) float64 { return math.Sin(lon) * math.Cos(lat) })
	v := evalOnMesh(m, func(lon, lat float64) float64 { return math.Cos(2*lat) * math.Sin(lat) })
	div := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		div[i] = make([]float64, m.Np*m.Np)
		DivergenceSphere(e, m.DerivFlat, m.Np, u[i], v[i], div[i])
	}
	total := m.Integrate(div)
	// Scale: typical |div| ~ Rrearth; integral over 4pi must be ~0.
	if math.Abs(total) > 1e-10*Rrearth*4*math.Pi {
		t.Errorf("integral of divergence = %g", total)
	}
}

func TestLaplacianEigenfunction(t *testing.T) {
	// Y_1^0 = sin(lat): laplace = -l(l+1)/a^2 * Y = -2 sin(lat)/a^2.
	m := mesh.New(8, 4)
	f := evalOnMesh(m, func(lon, lat float64) float64 { return math.Sin(lat) })
	lap := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		lap[i] = make([]float64, m.Np*m.Np)
		LaplaceSphere(e, m.DerivFlat, m.Np, f[i], lap[i])
	}
	// Element-local laplacian is least accurate at element boundaries;
	// DSS first for the global field.
	m.DSS(lap)
	if err := maxRelErr(m, lap, func(lon, lat float64) float64 {
		return -2 * math.Sin(lat) * Rrearth * Rrearth
	}); err > 5e-2 {
		t.Errorf("laplacian rel err %g", err)
	}
}

func TestLaplacianSpectralConvergence(t *testing.T) {
	// Refining ne must shrink the laplacian error fast.
	errAt := func(ne int) float64 {
		m := mesh.New(ne, 4)
		f := evalOnMesh(m, func(lon, lat float64) float64 {
			return math.Cos(lat) * math.Cos(lat) * math.Sin(2*lon)
		})
		lap := make([][]float64, m.NElems())
		for i, e := range m.Elements {
			lap[i] = make([]float64, m.Np*m.Np)
			LaplaceSphere(e, m.DerivFlat, m.Np, f[i], lap[i])
		}
		m.DSS(lap)
		// Y_2^2-like: eigenvalue -6/a^2.
		return maxRelErr(m, lap, func(lon, lat float64) float64 {
			return -6 * math.Cos(lat) * math.Cos(lat) * math.Sin(2*lon) * Rrearth * Rrearth
		})
	}
	e4, e8 := errAt(4), errAt(8)
	if e8 > e4/4 {
		t.Errorf("laplacian not converging: ne=4 err %g, ne=8 err %g", e4, e8)
	}
}

func TestVecLaplaceStreamFunction(t *testing.T) {
	// v = k x grad(psi) with psi = sin(lat):
	// lap v = k x grad(lap psi) = -2/a^2 * v.
	m := mesh.New(8, 4)
	psi := evalOnMesh(m, func(lon, lat float64) float64 { return math.Sin(lat) })
	u := make([][]float64, m.NElems())
	v := make([][]float64, m.NElems())
	lu := make([][]float64, m.NElems())
	lv := make([][]float64, m.NElems())
	npsq := m.Np * m.Np
	for i, e := range m.Elements {
		u[i] = make([]float64, npsq)
		v[i] = make([]float64, npsq)
		CurlSphere(e, m.DerivFlat, m.Np, psi[i], u[i], v[i])
	}
	m.DSS(u)
	m.DSS(v)
	for i, e := range m.Elements {
		lu[i] = make([]float64, npsq)
		lv[i] = make([]float64, npsq)
		VecLaplaceSphere(e, m.DerivFlat, m.Np, u[i], v[i], lu[i], lv[i])
	}
	m.DSS(lu)
	m.DSS(lv)
	want := -2 * Rrearth * Rrearth
	scale := Rrearth // |v| ~ cos(lat)/a <= 1/a
	maxe := 0.0
	for i := range lu {
		for n := 0; n < npsq; n++ {
			e1 := math.Abs(lu[i][n] - want*u[i][n])
			e2 := math.Abs(lv[i][n] - want*v[i][n])
			if e1 > maxe {
				maxe = e1
			}
			if e2 > maxe {
				maxe = e2
			}
		}
	}
	if maxe > 1e-2*scale*Rrearth*Rrearth/Rrearth {
		// Normalize: want*|v| ~ 2/a^2 * 1/a; accept 1% of that scale.
		if maxe > 0.02*2*Rrearth*Rrearth*Rrearth {
			t.Errorf("vector laplacian err %g", maxe)
		}
	}
}

func TestCurlIsNondivergent(t *testing.T) {
	// Strong-form div of a strong-form curl with DSS projections is not
	// pointwise zero (HOMME uses weak-form operators for exact
	// compatibility), but the spurious divergent content must be tiny
	// relative to the rotational content: compare L2 norms of div(curl
	// psi) and lap(psi) = vort(curl psi).
	m := mesh.New(8, 4)
	psi := evalOnMesh(m, func(lon, lat float64) float64 {
		return math.Sin(lat) * math.Cos(lat) * math.Cos(lon)
	})
	npsq := m.Np * m.Np
	u := make([][]float64, m.NElems())
	v := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		u[i] = make([]float64, npsq)
		v[i] = make([]float64, npsq)
		CurlSphere(e, m.DerivFlat, m.Np, psi[i], u[i], v[i])
	}
	m.DSS(u)
	m.DSS(v)
	div := make([][]float64, m.NElems())
	vort := make([][]float64, m.NElems())
	for i, e := range m.Elements {
		div[i] = make([]float64, npsq)
		vort[i] = make([]float64, npsq)
		DivergenceSphere(e, m.DerivFlat, m.Np, u[i], v[i], div[i])
		VorticitySphere(e, m.DerivFlat, m.Np, u[i], v[i], vort[i])
	}
	m.DSS(div)
	m.DSS(vort)
	sq := func(f [][]float64) [][]float64 {
		out := make([][]float64, len(f))
		for i := range f {
			out[i] = make([]float64, len(f[i]))
			for k := range f[i] {
				out[i][k] = f[i][k] * f[i][k]
			}
		}
		return out
	}
	l2div := math.Sqrt(m.Integrate(sq(div)))
	l2vort := math.Sqrt(m.Integrate(sq(vort)))
	if l2vort == 0 {
		t.Fatal("curl produced no rotation")
	}
	if ratio := l2div / l2vort; ratio > 0.02 {
		t.Errorf("divergent content of curl = %.3f of rotational content", ratio)
	}
}

// sameBits reports whether two outputs are the same float64 bit for bit.
// Two NaNs count as the same whatever their payload: the sign and payload
// of a NaN made from two NaN operands follow the machine instruction's
// operand order, which the compiler may commute per call site.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// slabFuncs is one implementation of the five derivative operators.
type slabFuncs struct {
	grad       func(d, dinv []float64, dA float64, np int, s, gx, gy, da, db []float64)
	div, vort  func(d, met, metdet []float64, dA float64, np int, u, v, out, s1, s2 []float64)
	laplace    func(d, dinv, metdet []float64, dA float64, np int, s, out, s1, s2, s3, s4 []float64)
	vecLaplace func(d, dflat, dinv, metdet []float64, dA float64, np int, u, v, lu, lv, s1, s2, s3, s4, s5, s6 []float64)
}

// composed fills in the Laplacian and the vector Laplacian from grad,
// div and vort the way LaplaceSlab and VecLaplaceSlab compose them.
func composed(f slabFuncs) slabFuncs {
	f.laplace = func(d, dinv, metdet []float64, dA float64, np int, s, out, s1, s2, s3, s4 []float64) {
		f.grad(d, dinv, dA, np, s, s1, s2, s3, s4)
		f.div(d, dinv, metdet, dA, np, s1, s2, out, s3, s4)
	}
	f.vecLaplace = func(d, dflat, dinv, metdet []float64, dA float64, np int, u, v, lu, lv, s1, s2, s3, s4, s5, s6 []float64) {
		f.div(d, dinv, metdet, dA, np, u, v, s1, s3, s4)
		f.vort(d, dflat, metdet, dA, np, u, v, s2, s3, s4)
		f.grad(d, dinv, dA, np, s1, lu, lv, s3, s4)
		f.grad(d, dinv, dA, np, s2, s5, s6, s3, s4)
		for n := range lu {
			lu[n] -= -s6[n]
			lv[n] -= s5[n]
		}
	}
	return f
}

// np4Encoding is one encoding of the three np = 4 bodies, in the Go
// body's signature.
type np4Encoding struct {
	name      string
	grad      func(d *slab4, dinv *metric4, fac float64, s, gx, gy, da, db *slab4)
	div, vort func(d *slab4, met *metric4, metdet *slab4, fac float64, u, v, out, s1, s2 *slab4)
}

// np4Encodings are the encodings this host can run. Each is called
// directly, not through the dispatch, so the Go body stays covered on
// every machine and every other encoding is provably the code under
// test. An architecture's test file appends its own.
var np4Encodings = []np4Encoding{{"go", gradient4, divergence4, vorticity4}}

// slabs wraps the encoding's bodies as np = 4 slab operators.
func (enc np4Encoding) slabs() slabFuncs {
	return composed(slabFuncs{
		grad: func(d, dinv []float64, dA float64, np int, s, gx, gy, da, db []float64) {
			enc.grad((*slab4)(d), (*metric4)(dinv), 2/dA, (*slab4)(s), (*slab4)(gx), (*slab4)(gy), (*slab4)(da), (*slab4)(db))
		},
		div: func(d, met, metdet []float64, dA float64, np int, u, v, out, s1, s2 []float64) {
			enc.div((*slab4)(d), (*metric4)(met), (*slab4)(metdet), 2/dA, (*slab4)(u), (*slab4)(v), (*slab4)(out), (*slab4)(s1), (*slab4)(s2))
		},
		vort: func(d, met, metdet []float64, dA float64, np int, u, v, out, s1, s2 []float64) {
			enc.vort((*slab4)(d), (*metric4)(met), (*slab4)(metdet), 2/dA, (*slab4)(u), (*slab4)(v), (*slab4)(out), (*slab4)(s1), (*slab4)(s2))
		},
	})
}

var (
	publicSlabs = slabFuncs{grad: GradientSlab, div: DivergenceSlab, vort: VorticitySlab,
		laplace: LaplaceSlab, vecLaplace: VecLaplaceSlab}
	genericSlabs = composed(slabFuncs{grad: gradientSlabGeneric, div: divergenceSlabGeneric, vort: vorticitySlabGeneric})
)

// run applies every operator to (u, v) on element e, each with buffers
// of its own, and returns all of them: outputs and the scratch slabs,
// whose contents (the scaled covariant derivatives, the metric-weighted
// fluxes) show a rounding or sign difference before any output does.
func (f slabFuncs) run(m *mesh.Mesh, e *mesh.Element, u, v []float64) [][]float64 {
	np, d, dA := m.Np, m.DerivFlat, e.DAlpha
	b := make([][]float64, 27)
	for i := range b {
		b[i] = make([]float64, np*np)
	}
	f.grad(d, e.DinvFlat, dA, np, u, b[0], b[1], b[2], b[3])
	f.div(d, e.DinvFlat, e.Metdet, dA, np, u, v, b[4], b[5], b[6])
	f.vort(d, e.DFlat, e.Metdet, dA, np, u, v, b[7], b[8], b[9])
	f.laplace(d, e.DinvFlat, e.Metdet, dA, np, u, b[10], b[11], b[12], b[13], b[14])
	f.vecLaplace(d, e.DFlat, e.DinvFlat, e.Metdet, dA, np, u, v, b[15], b[16], b[17], b[18], b[19], b[20], b[21], b[22])
	// In place, which the generic loops' two-pass structure allows: div
	// over u, gx over s.
	copy(b[23], u)
	f.div(d, e.DinvFlat, e.Metdet, dA, np, b[23], v, b[23], b[24], b[25])
	f.grad(d, e.DinvFlat, dA, np, b[23], b[23], b[26], b[24], b[25])
	return b
}

// matchGeneric reports the first output or scratch slab in which impl
// differs from the generic loop on (u, v) over element e.
func matchGeneric(t *testing.T, what string, impl slabFuncs, m *mesh.Mesh, e *mesh.Element, u, v []float64) {
	t.Helper()
	got, want := impl.run(m, e, u, v), genericSlabs.run(m, e, u, v)
	for k := range got {
		for n := range got[k] {
			if !sameBits(got[k][n], want[k][n]) {
				t.Fatalf("%s: slab %d node %d = %v (%#x), generic loop gives %v (%#x)", what, k, n,
					got[k][n], math.Float64bits(got[k][n]), want[k][n], math.Float64bits(want[k][n]))
			}
		}
	}
}

// np4Specials are the inputs the rounding and sign rules differ on.
var np4Specials = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}

// TestNp4SlabsMatchGeneric pins every np = 4 encoding of every derivative
// operator — through the dispatch, and each encoding the host can run
// called directly — to the generic loop bit for bit: over random slabs,
// slabs salted with signed zeros, denormals, ±Inf and NaN, and zero slabs
// whose signs make every product of one reduction -0 (the case the
// leading 0.0 + decides). It keeps the generic loop exercised as the
// np != 4 path at np = 3 and 5.
func TestNp4SlabsMatchGeneric(t *testing.T) {
	for _, enc := range np4Encodings {
		t.Logf("np = 4 encoding under test: %s", enc.name)
	}
	rng := rand.New(rand.NewSource(22))
	for _, np := range []int{3, 4, 5} {
		m := mesh.New(2, np)
		npsq := np * np
		for trial := 0; trial < 300; trial++ {
			e := m.Elements[rng.Intn(m.NElems())]
			u, v := make([]float64, npsq), make([]float64, npsq)
			for n := range u {
				switch trial % 3 {
				case 0: // finite
					u[n], v[n] = rng.NormFloat64(), rng.NormFloat64()
				case 1: // salted, more heavily as the trials go on
					u[n], v[n] = rng.NormFloat64(), rng.NormFloat64()
					if rng.Intn(300) < trial {
						u[n] = np4Specials[rng.Intn(len(np4Specials))]
					}
					if rng.Intn(600) < trial {
						v[n] = np4Specials[rng.Intn(len(np4Specials))]
					}
				case 2: // zeros signed against one row (u) or column (v) of D
					r := trial / 3 % np
					u[n] = math.Copysign(0, -m.DerivFlat[r*np+n%np])
					v[n] = math.Copysign(0, -m.DerivFlat[r*np+n/np])
				}
			}
			matchGeneric(t, fmt.Sprintf("np=%d trial %d dispatch", np, trial), publicSlabs, m, e, u, v)
			if np != 4 {
				continue
			}
			for _, enc := range np4Encodings {
				matchGeneric(t, fmt.Sprintf("np=4 trial %d %s", trial, enc.name), enc.slabs(), m, e, u, v)
			}
		}
	}
}

// FuzzNp4Slabs holds every np = 4 encoding, and the dispatch, to the
// generic loop on arbitrary float64 bits: raw holds u then v (16 values
// each, little-endian, zero-padded), elem picks the element.
func FuzzNp4Slabs(f *testing.F) {
	m := mesh.New(2, 4)
	for i := range np4Specials {
		raw := make([]byte, 256)
		for n := 0; n < 32; n++ {
			x := np4Specials[(n*(i+1)+i)%len(np4Specials)]
			binary.LittleEndian.PutUint64(raw[8*n:], math.Float64bits(x))
		}
		f.Add(raw, uint8(i))
	}
	f.Fuzz(func(t *testing.T, raw []byte, elem uint8) {
		buf := make([]byte, 256)
		copy(buf, raw)
		u, v := make([]float64, 16), make([]float64, 16)
		for n := range u {
			u[n] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*n:]))
			v[n] = math.Float64frombits(binary.LittleEndian.Uint64(buf[128+8*n:]))
		}
		e := m.Elements[int(elem)%m.NElems()]
		matchGeneric(t, "dispatch", publicSlabs, m, e, u, v)
		for _, enc := range np4Encodings {
			matchGeneric(t, enc.name, enc.slabs(), m, e, u, v)
		}
	})
}

// LaplaceSphere computes the scalar Laplacian div(grad s)). The result is
// element-local; global accuracy requires DSS between repeated
// applications (as in the biharmonic kernels).
func LaplaceSphere(e *mesh.Element, derivFlat []float64, np int, s, out []float64) {
	npsq := np * np
	s1 := make([]float64, npsq)
	s2 := make([]float64, npsq)
	s3 := make([]float64, npsq)
	s4 := make([]float64, npsq)
	LaplaceSlab(derivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np, s, out, s1, s2, s3, s4)
}

// VecLaplaceSphere is the element wrapper around VecLaplaceSlab.
func VecLaplaceSphere(e *mesh.Element, derivFlat []float64, np int, u, v, lu, lv []float64) {
	npsq := np * np
	scr := make([]float64, 6*npsq)
	VecLaplaceSlab(derivFlat, e.DFlat, e.DinvFlat, e.Metdet, e.DAlpha, np,
		u, v, lu, lv,
		scr[0:npsq], scr[npsq:2*npsq], scr[2*npsq:3*npsq],
		scr[3*npsq:4*npsq], scr[4*npsq:5*npsq], scr[5*npsq:6*npsq])
}

// GradientSphere is the element wrapper around GradientSlab.
func GradientSphere(e *mesh.Element, derivFlat []float64, np int, s, gx, gy []float64) {
	da := make([]float64, np*np)
	db := make([]float64, np*np)
	GradientSlab(derivFlat, e.DinvFlat, e.DAlpha, np, s, gx, gy, da, db)
}

// DivergenceSphere is the element wrapper around DivergenceSlab.
func DivergenceSphere(e *mesh.Element, derivFlat []float64, np int, u, v, div []float64) {
	npsq := np * np
	gv1 := make([]float64, npsq)
	gv2 := make([]float64, npsq)
	DivergenceSlab(derivFlat, e.DinvFlat, e.Metdet, e.DAlpha, np, u, v, div, gv1, gv2)
}

// VorticitySphere is the element wrapper around VorticitySlab.
func VorticitySphere(e *mesh.Element, derivFlat []float64, np int, u, v, vort []float64) {
	npsq := np * np
	cov1 := make([]float64, npsq)
	cov2 := make([]float64, npsq)
	VorticitySlab(derivFlat, e.DFlat, e.Metdet, e.DAlpha, np, u, v, vort, cov1, cov2)
}

// CurlSphere computes k x grad(psi): the nondivergent vector field of a
// stream function.
func CurlSphere(e *mesh.Element, derivFlat []float64, np int, psi, u, v []float64) {
	npsq := np * np
	gx := make([]float64, npsq)
	gy := make([]float64, npsq)
	GradientSphere(e, derivFlat, np, psi, gx, gy)
	for n := 0; n < npsq; n++ {
		u[n] = -gy[n]
		v[n] = gx[n]
	}
}

// The *Slab forms: one call of one operator with the flat metrics it
// reads, the form the operator tests and benchmarks drive.

// GradientSlab computes the spherical gradient of scalar slab s into
// (gx, gy), using scratch slices da, db (np*np each).
func GradientSlab(derivFlat, dinvFlat []float64, dAlpha float64, np int, s, gx, gy, da, db []float64) {
	var o Operators
	o.Set(np, dAlpha, derivFlat, dinvFlat, nil, nil)
	o.Gradient(s, gx, gy, da, db)
}

// DivergenceSlab computes the spherical divergence of (u, v) into div,
// using scratch gv1, gv2 (np*np each).
func DivergenceSlab(derivFlat, dinvFlat, metdet []float64, dAlpha float64, np int, u, v, div, gv1, gv2 []float64) {
	var o Operators
	o.Set(np, dAlpha, derivFlat, dinvFlat, nil, metdet)
	o.Divergence(u, v, div, gv1, gv2)
}

// VorticitySlab computes the radial curl component of (u, v) into vort,
// using scratch cov1, cov2.
func VorticitySlab(derivFlat, dFlat, metdet []float64, dAlpha float64, np int, u, v, vort, cov1, cov2 []float64) {
	var o Operators
	o.Set(np, dAlpha, derivFlat, nil, dFlat, metdet)
	o.Vorticity(u, v, vort, cov1, cov2)
}

// LaplaceSlab computes div(grad s)) with caller scratch (4 slabs).
func LaplaceSlab(derivFlat, dinvFlat, metdet []float64, dAlpha float64, np int, s, out, s1, s2, s3, s4 []float64) {
	var o Operators
	o.Set(np, dAlpha, derivFlat, dinvFlat, nil, metdet)
	o.Laplace(s, out, s1, s2, s3, s4)
}

// VecLaplaceSlab computes the sphere-correct vector Laplacian
// grad(div) - k x grad(vort) with caller scratch (6 slabs).
func VecLaplaceSlab(derivFlat, dFlat, dinvFlat, metdet []float64, dAlpha float64, np int,
	u, v, lu, lv, s1, s2, s3, s4, s5, s6 []float64) {
	var o Operators
	o.Set(np, dAlpha, derivFlat, dinvFlat, dFlat, metdet)
	o.VecLaplace(u, v, lu, lv, s1, s2, s3, s4, s5, s6)
}
