package dycore

// The AVX2 encoding joins the differential tests when the CPU has it.
func init() {
	if !hasAVX2 {
		return
	}
	np4Encodings = append(np4Encodings, np4Encoding{"avx2",
		func(d *slab4, dinv *metric4, fac float64, s, gx, gy, da, db *slab4) {
			gradient4AVX2(d, dinv, fac, Rrearth, s, gx, gy, da, db)
		},
		func(d *slab4, dinv *metric4, metdet *slab4, fac float64, u, v, div, gv1, gv2 *slab4) {
			divergence4AVX2(d, dinv, metdet, fac, Rrearth, u, v, div, gv1, gv2)
		},
		func(d *slab4, dFlat *metric4, metdet *slab4, fac float64, u, v, vort, cov1, cov2 *slab4) {
			vorticity4AVX2(d, dFlat, metdet, fac, Rrearth, u, v, vort, cov1, cov2)
		}})
}
