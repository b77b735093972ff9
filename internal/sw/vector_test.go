package sw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec4Arithmetic(t *testing.T) {
	a := Vec4{1, 2, 3, 4}
	b := Vec4{5, 6, 7, 8}
	if got := a.Sub(b); got != (Vec4{-4, -4, -4, -4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Vec4{5, 12, 21, 32}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); got != (Vec4{2, 4, 6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (Vec4{-1, -2, -3, -4}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVec4LoadStore(t *testing.T) {
	s := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	v := LoadVec4(s, 2)
	if v != (Vec4{2, 3, 4, 5}) {
		t.Fatalf("LoadVec4 = %v", v)
	}
	dst := make([]float64, 8)
	v.Store(dst, 1)
	want := []float64{0, 2, 3, 4, 5, 0, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Store: dst = %v", dst)
		}
	}
}

func TestSplat(t *testing.T) {
	if Splat(3.5) != (Vec4{3.5, 3.5, 3.5, 3.5}) {
		t.Fatal("Splat broken")
	}
}

func TestShuffleSemantics(t *testing.T) {
	a := Vec4{10, 11, 12, 13}
	b := Vec4{20, 21, 22, 23}
	// The paper's Figure 3 example: lanes 0,2 of a then lanes 0,1 of b.
	got := Shuffle(a, b, ShuffleMask{0, 2, 0, 1})
	if got != (Vec4{10, 12, 20, 21}) {
		t.Fatalf("Shuffle = %v", got)
	}
}

func TestTranspose4x4(t *testing.T) {
	r0 := Vec4{0, 1, 2, 3}
	r1 := Vec4{4, 5, 6, 7}
	r2 := Vec4{8, 9, 10, 11}
	r3 := Vec4{12, 13, 14, 15}
	c0, c1, c2, c3, n := Transpose4x4(r0, r1, r2, r3)
	if n != 8 {
		t.Errorf("shuffle count = %d, want 8 (the paper's figure uses 8)", n)
	}
	if c0 != (Vec4{0, 4, 8, 12}) || c1 != (Vec4{1, 5, 9, 13}) ||
		c2 != (Vec4{2, 6, 10, 14}) || c3 != (Vec4{3, 7, 11, 15}) {
		t.Fatalf("transpose wrong: %v %v %v %v", c0, c1, c2, c3)
	}
}

// Property: transposing twice is the identity, for arbitrary matrices.
func TestTranspose4x4Involution(t *testing.T) {
	f := func(m [16]float64) bool {
		r0 := Vec4{m[0], m[1], m[2], m[3]}
		r1 := Vec4{m[4], m[5], m[6], m[7]}
		r2 := Vec4{m[8], m[9], m[10], m[11]}
		r3 := Vec4{m[12], m[13], m[14], m[15]}
		c0, c1, c2, c3, _ := Transpose4x4(r0, r1, r2, r3)
		b0, b1, b2, b3, _ := Transpose4x4(c0, c1, c2, c3)
		return b0 == r0 && b1 == r1 && b2 == r2 && b3 == r3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Shuffle never reads outside the two source registers, for any
// mask byte values (masks are taken mod 4 like hardware immediates).
func TestShufflePropertyLanes(t *testing.T) {
	f := func(a, b [4]float64, mask [4]uint8) bool {
		got := Shuffle(Vec4(a), Vec4(b), ShuffleMask(mask))
		okLane := func(x float64, src [4]float64) bool {
			for _, v := range src {
				if x == v || (math.IsNaN(x) && math.IsNaN(v)) {
					return true
				}
			}
			return false
		}
		return okLane(got[0], a) && okLane(got[1], a) && okLane(got[2], b) && okLane(got[3], b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
