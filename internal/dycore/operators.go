package dycore

import "swcam/internal/mesh"

// Horizontal spectral-element operators on one np x np level slab.
//
// Each operator exists in two forms: a *Slab form that consumes flat
// metric buffers (derivFlat row-major np x np, dinv/d flattened as
// node*4+2*row+col) and caller-provided scratch — the form the Sunway
// execution backends run against LDM tiles — and a convenience wrapper
// taking a *mesh.Element that allocates scratch, used by the serial
// reference solver. Both perform identical arithmetic in identical
// order, which is what lets backend-equivalence tests demand agreement
// to rounding.
//
// At np = 4 — CAM-SE's production order, the only one the Athread
// lowering accepts — every *Slab form runs one fixed-size arithmetic,
// shared by all lowerings: array views, so no bounds check survives, and
// both m-reductions written out in the generic loop's operand order,
// leading 0.0 + included so a -0 product still becomes +0. It has two
// encodings: the Go bodies below (the *4 functions), and on amd64 with
// AVX2 the same operations four lanes wide (operators_amd64.s), chosen
// once by a CPUID probe. The generic loops are the np != 4 path and the
// oracle that TestNp4SlabsMatchGeneric and FuzzNp4Slabs hold both
// encodings to, bit for bit.

type slab4 = [16]float64   // one np=4 level slab, or the 4x4 derivative matrix
type metric4 = [64]float64 // the four D / Dinv coefficients of each node

// deriv4 stores the unscaled derivative of a along alpha into da and of
// b along beta into db.
func deriv4(d, a, b, da, db *slab4) {
	for j := 0; j < 4; j++ {
		a0, a1, a2, a3 := a[4*j], a[4*j+1], a[4*j+2], a[4*j+3]
		d0, d1, d2, d3 := d[4*j], d[4*j+1], d[4*j+2], d[4*j+3]
		for i := 0; i < 4; i++ {
			da[4*j+i] = 0.0 + d[4*i]*a0 + d[4*i+1]*a1 + d[4*i+2]*a2 + d[4*i+3]*a3
			db[4*j+i] = 0.0 + d0*b[i] + d1*b[4+i] + d2*b[8+i] + d3*b[12+i]
		}
	}
}

func gradient4(d *slab4, dinv *metric4, fac float64, s, gx, gy, da, db *slab4) {
	deriv4(d, s, s, da, db)
	for n := range s {
		a, b := da[n]*fac, db[n]*fac
		da[n], db[n] = a, b
		gx[n] = (dinv[4*n+0]*a + dinv[4*n+2]*b) * Rrearth
		gy[n] = (dinv[4*n+1]*a + dinv[4*n+3]*b) * Rrearth
	}
}

func divergence4(d *slab4, dinv *metric4, metdet *slab4, fac float64, u, v, div, gv1, gv2 *slab4) {
	for n := range u {
		c1 := dinv[4*n+0]*u[n] + dinv[4*n+1]*v[n]
		c2 := dinv[4*n+2]*u[n] + dinv[4*n+3]*v[n]
		gv1[n] = metdet[n] * c1
		gv2[n] = metdet[n] * c2
	}
	var da, db slab4
	deriv4(d, gv1, gv2, &da, &db)
	for n := range div {
		div[n] = (da[n] + db[n]) * fac * Rrearth / metdet[n]
	}
}

func vorticity4(d *slab4, dFlat *metric4, metdet *slab4, fac float64, u, v, vort, cov1, cov2 *slab4) {
	for n := range u {
		cov1[n] = dFlat[4*n+0]*u[n] + dFlat[4*n+2]*v[n]
		cov2[n] = dFlat[4*n+1]*u[n] + dFlat[4*n+3]*v[n]
	}
	var da, db slab4
	deriv4(d, cov2, cov1, &da, &db)
	for n := range vort {
		vort[n] = (da[n] - db[n]) * fac * Rrearth / metdet[n]
	}
}

// covariantDerivSlab computes ds/dalpha and ds/dbeta at every node.
func covariantDerivSlab(derivFlat []float64, dAlpha float64, np int, s, da, db []float64) {
	fac := 2 / dAlpha
	for j := 0; j < np; j++ {
		for i := 0; i < np; i++ {
			ga, gb := 0.0, 0.0
			for m := 0; m < np; m++ {
				ga += derivFlat[i*np+m] * s[j*np+m]
				gb += derivFlat[j*np+m] * s[m*np+i]
			}
			da[j*np+i] = ga * fac
			db[j*np+i] = gb * fac
		}
	}
}

// GradientSlab computes the spherical gradient of scalar slab s into
// (gx, gy), using scratch slices da, db (np*np each).
func GradientSlab(derivFlat, dinvFlat []float64, dAlpha float64, np int, s, gx, gy, da, db []float64) {
	if np != 4 {
		gradientSlabGeneric(derivFlat, dinvFlat, dAlpha, np, s, gx, gy, da, db)
		return
	}
	runGradient4((*slab4)(derivFlat), (*metric4)(dinvFlat), 2/dAlpha,
		(*slab4)(s), (*slab4)(gx), (*slab4)(gy), (*slab4)(da), (*slab4)(db))
}

func gradientSlabGeneric(derivFlat, dinvFlat []float64, dAlpha float64, np int, s, gx, gy, da, db []float64) {
	covariantDerivSlab(derivFlat, dAlpha, np, s, da, db)
	for n := 0; n < np*np; n++ {
		// spherical = Dinv^T . (da, db), scaled by 1/a.
		gx[n] = (dinvFlat[4*n+0]*da[n] + dinvFlat[4*n+2]*db[n]) * Rrearth
		gy[n] = (dinvFlat[4*n+1]*da[n] + dinvFlat[4*n+3]*db[n]) * Rrearth
	}
}

// DivergenceSlab computes the spherical divergence of (u, v) into div,
// using scratch gv1, gv2 (np*np each).
func DivergenceSlab(derivFlat, dinvFlat, metdet []float64, dAlpha float64, np int, u, v, div, gv1, gv2 []float64) {
	if np != 4 {
		divergenceSlabGeneric(derivFlat, dinvFlat, metdet, dAlpha, np, u, v, div, gv1, gv2)
		return
	}
	runDivergence4((*slab4)(derivFlat), (*metric4)(dinvFlat), (*slab4)(metdet), 2/dAlpha,
		(*slab4)(u), (*slab4)(v), (*slab4)(div), (*slab4)(gv1), (*slab4)(gv2))
}

func divergenceSlabGeneric(derivFlat, dinvFlat, metdet []float64, dAlpha float64, np int, u, v, div, gv1, gv2 []float64) {
	npsq := np * np
	for n := 0; n < npsq; n++ {
		c1 := dinvFlat[4*n+0]*u[n] + dinvFlat[4*n+1]*v[n]
		c2 := dinvFlat[4*n+2]*u[n] + dinvFlat[4*n+3]*v[n]
		gv1[n] = metdet[n] * c1
		gv2[n] = metdet[n] * c2
	}
	fac := 2 / dAlpha
	for j := 0; j < np; j++ {
		for i := 0; i < np; i++ {
			dda, ddb := 0.0, 0.0
			for m := 0; m < np; m++ {
				dda += derivFlat[i*np+m] * gv1[j*np+m]
				ddb += derivFlat[j*np+m] * gv2[m*np+i]
			}
			n := j*np + i
			div[n] = (dda + ddb) * fac * Rrearth / metdet[n]
		}
	}
}

// VorticitySlab computes the radial curl component of (u, v) into vort,
// using scratch cov1, cov2.
func VorticitySlab(derivFlat, dFlat, metdet []float64, dAlpha float64, np int, u, v, vort, cov1, cov2 []float64) {
	if np != 4 {
		vorticitySlabGeneric(derivFlat, dFlat, metdet, dAlpha, np, u, v, vort, cov1, cov2)
		return
	}
	runVorticity4((*slab4)(derivFlat), (*metric4)(dFlat), (*slab4)(metdet), 2/dAlpha,
		(*slab4)(u), (*slab4)(v), (*slab4)(vort), (*slab4)(cov1), (*slab4)(cov2))
}

func vorticitySlabGeneric(derivFlat, dFlat, metdet []float64, dAlpha float64, np int, u, v, vort, cov1, cov2 []float64) {
	npsq := np * np
	for n := 0; n < npsq; n++ {
		// covariant components: D^T . (u,v)
		cov1[n] = dFlat[4*n+0]*u[n] + dFlat[4*n+2]*v[n]
		cov2[n] = dFlat[4*n+1]*u[n] + dFlat[4*n+3]*v[n]
	}
	fac := 2 / dAlpha
	for j := 0; j < np; j++ {
		for i := 0; i < np; i++ {
			dda, ddb := 0.0, 0.0
			for m := 0; m < np; m++ {
				dda += derivFlat[i*np+m] * cov2[j*np+m] // d(cov2)/dalpha
				ddb += derivFlat[j*np+m] * cov1[m*np+i] // d(cov1)/dbeta
			}
			n := j*np + i
			vort[n] = (dda - ddb) * fac * Rrearth / metdet[n]
		}
	}
}

// LaplaceSlab computes div(grad s)) with caller scratch (4 slabs).
func LaplaceSlab(derivFlat, dinvFlat, metdet []float64, dAlpha float64, np int, s, out, s1, s2, s3, s4 []float64) {
	GradientSlab(derivFlat, dinvFlat, dAlpha, np, s, s1, s2, s3, s4)
	DivergenceSlab(derivFlat, dinvFlat, metdet, dAlpha, np, s1, s2, out, s3, s4)
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

// VecLaplaceSlab computes the sphere-correct vector Laplacian
// grad(div) - k x grad(vort) with caller scratch (6 slabs).
func VecLaplaceSlab(derivFlat, dFlat, dinvFlat, metdet []float64, dAlpha float64, np int,
	u, v, lu, lv, s1, s2, s3, s4, s5, s6 []float64) {
	npsq := np * np
	div, vort := s1, s2
	DivergenceSlab(derivFlat, dinvFlat, metdet, dAlpha, np, u, v, div, s3, s4)
	VorticitySlab(derivFlat, dFlat, metdet, dAlpha, np, u, v, vort, s3, s4)
	GradientSlab(derivFlat, dinvFlat, dAlpha, np, div, lu, lv, s3, s4)
	GradientSlab(derivFlat, dinvFlat, dAlpha, np, vort, s5, s6, s3, s4)
	for n := 0; n < npsq; n++ {
		// k x grad(vort) = (-gy, gx); subtract it.
		lu[n] -= -s6[n]
		lv[n] -= s5[n]
	}
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
