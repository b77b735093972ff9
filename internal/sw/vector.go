package sw

// Vec4 models one 256-bit vector register holding four double-precision
// lanes, the native SIMD width of the SW26010 CPE. The Athread backend
// rewrites inner loops in terms of Vec4 operations the way the paper's
// fine-grained redesign hand-vectorizes its kernels (§7.3 step two).
type Vec4 [4]float64

// VecWidth is the number of float64 lanes per vector register.
const VecWidth = 4

// Splat returns a vector with all four lanes set to x.
func Splat(x float64) Vec4 { return Vec4{x, x, x, x} }

// LoadVec4 loads four consecutive float64 values starting at s[i].
func LoadVec4(s []float64, i int) Vec4 {
	_ = s[i+3] // bounds hint
	return Vec4{s[i], s[i+1], s[i+2], s[i+3]}
}

// Store writes the four lanes to consecutive positions starting at s[i].
func (v Vec4) Store(s []float64, i int) {
	_ = s[i+3]
	s[i], s[i+1], s[i+2], s[i+3] = v[0], v[1], v[2], v[3]
}

// Sub returns the lane-wise difference v - w.
func (v Vec4) Sub(w Vec4) Vec4 {
	return Vec4{v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3]}
}

// Mul returns the lane-wise product v * w.
func (v Vec4) Mul(w Vec4) Vec4 {
	return Vec4{v[0] * w[0], v[1] * w[1], v[2] * w[2], v[3] * w[3]}
}

// Scale returns the vector with every lane multiplied by x.
func (v Vec4) Scale(x float64) Vec4 {
	return Vec4{v[0] * x, v[1] * x, v[2] * x, v[3] * x}
}

// Neg returns the lane-wise negation.
func (v Vec4) Neg() Vec4 { return Vec4{-v[0], -v[1], -v[2], -v[3]} }

// ShuffleMask selects, for each of the four destination lanes, a source
// lane index in 0..3. The first two destination lanes read from register
// a, the last two from register b — the semantics of the SW26010 shuffle
// instruction illustrated in Figure 3 of the paper.
type ShuffleMask [4]uint8

// Shuffle implements Shuffle(a, b, mask): destination lanes 0 and 1 come
// from a at positions mask[0] and mask[1]; destination lanes 2 and 3 come
// from b at positions mask[2] and mask[3].
func Shuffle(a, b Vec4, mask ShuffleMask) Vec4 {
	return Vec4{a[mask[0]&3], a[mask[1]&3], b[mask[2]&3], b[mask[3]&3]}
}

// Transpose4x4 transposes a 4x4 block held in four vector registers using
// eight shuffle instructions, the intra-CPE stage of the paper's two-level
// transposition scheme (Figure 3, bottom left). Row i of the result holds
// column i of the input.
//
// The count of shuffle operations (8) is returned so callers can account
// the instruction cost.
func Transpose4x4(r0, r1, r2, r3 Vec4) (c0, c1, c2, c3 Vec4, shuffles int) {
	// Stage 1: interleave pairs of rows. After this stage,
	// t0 = {r0[0], r0[2], r1[0], r1[2]}, etc. — each temp register holds
	// the even or odd lanes of two source rows.
	t0 := Shuffle(r0, r1, ShuffleMask{0, 2, 0, 2})
	t1 := Shuffle(r0, r1, ShuffleMask{1, 3, 1, 3})
	t2 := Shuffle(r2, r3, ShuffleMask{0, 2, 0, 2})
	t3 := Shuffle(r2, r3, ShuffleMask{1, 3, 1, 3})
	// Stage 2: combine across the two halves to form columns.
	c0 = Shuffle(t0, t2, ShuffleMask{0, 2, 0, 2})
	c1 = Shuffle(t1, t3, ShuffleMask{0, 2, 0, 2})
	c2 = Shuffle(t0, t2, ShuffleMask{1, 3, 1, 3})
	c3 = Shuffle(t1, t3, ShuffleMask{1, 3, 1, 3})
	return c0, c1, c2, c3, 8
}
