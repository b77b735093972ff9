//go:build !amd64

package dycore

// Without an assembly encoding the np = 4 operators run the Go bodies.

func runGradient4(d *slab4, dinv *metric4, fac float64, s, gx, gy, da, db *slab4) {
	gradient4(d, dinv, fac, s, gx, gy, da, db)
}

func runDivergence4(d *slab4, dinv *metric4, metdet *slab4, fac float64, u, v, div, gv1, gv2 *slab4) {
	divergence4(d, dinv, metdet, fac, u, v, div, gv1, gv2)
}

func runVorticity4(d *slab4, dFlat *metric4, metdet *slab4, fac float64, u, v, vort, cov1, cov2 *slab4) {
	vorticity4(d, dFlat, metdet, fac, u, v, vort, cov1, cov2)
}
