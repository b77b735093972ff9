package dycore

// The np = 4 bodies have a second encoding here: operators_amd64.s runs
// each GLL row as one 4-lane AVX2 operation, with the Go body's
// arithmetic lane by lane, so both encodings give the same bits. The
// probe runs once; without AVX2 (or without OS support for the YMM
// state) the Go bodies run.

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers.
var hasAVX2 = cpuAVX2()

func cpuAVX2() bool

//go:noescape
func gradient4AVX2(d *slab4, dinv *metric4, fac, rrearth float64, s, gx, gy, da, db *slab4)

//go:noescape
func divergence4AVX2(d *slab4, dinv *metric4, metdet *slab4, fac, rrearth float64, u, v, div, gv1, gv2 *slab4)

//go:noescape
func vorticity4AVX2(d *slab4, dFlat *metric4, metdet *slab4, fac, rrearth float64, u, v, vort, cov1, cov2 *slab4)

func runGradient4(d *slab4, dinv *metric4, fac float64, s, gx, gy, da, db *slab4) {
	if hasAVX2 {
		gradient4AVX2(d, dinv, fac, Rrearth, s, gx, gy, da, db)
		return
	}
	gradient4(d, dinv, fac, s, gx, gy, da, db)
}

func runDivergence4(d *slab4, dinv *metric4, metdet *slab4, fac float64, u, v, div, gv1, gv2 *slab4) {
	if hasAVX2 {
		divergence4AVX2(d, dinv, metdet, fac, Rrearth, u, v, div, gv1, gv2)
		return
	}
	divergence4(d, dinv, metdet, fac, u, v, div, gv1, gv2)
}

func runVorticity4(d *slab4, dFlat *metric4, metdet *slab4, fac float64, u, v, vort, cov1, cov2 *slab4) {
	if hasAVX2 {
		vorticity4AVX2(d, dFlat, metdet, fac, Rrearth, u, v, vort, cov1, cov2)
		return
	}
	vorticity4(d, dFlat, metdet, fac, u, v, vort, cov1, cov2)
}
