package mesh

import (
	"math"
	"math/rand"
	"testing"
)

// bruteNearest is the reference NodeSearch must reproduce: every node of
// every element, first strict minimum of GreatCircleDist.
func bruteNearest(m *Mesh, p Vec3) NodeRef {
	best := math.Inf(1)
	var at NodeRef
	for ei, e := range m.Elements {
		for n, q := range e.Pos {
			if d := GreatCircleDist(p, q); d < best {
				best, at = d, NodeRef{Elem: ei, Idx: n}
			}
		}
	}
	return at
}

// searchProbes returns seeded random points plus the hard cases: the
// poles, cube corners, cube edge midpoints and, below ne8 (where the
// brute force gets slow), every node position itself, where the
// duplicated edge and corner copies tie or nearly tie.
func searchProbes(m *Mesh, seed int64, random int) []Vec3 {
	rng := rand.New(rand.NewSource(seed))
	var out []Vec3
	for i := 0; i < random; i++ {
		out = append(out, Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize())
	}
	out = append(out, Vec3{0, 0, 1}, Vec3{0, 0, -1})
	for _, sx := range []float64{-1, 1} {
		for _, sy := range []float64{-1, 1} {
			for _, sz := range []float64{-1, 1} {
				out = append(out, Vec3{sx, sy, sz}.Normalize())
			}
			out = append(out, Vec3{sx, sy, 0}.Normalize(), Vec3{sx, 0, sy}.Normalize(), Vec3{0, sx, sy}.Normalize())
		}
	}
	if m.Ne < 8 {
		for _, e := range m.Elements {
			out = append(out, e.Pos...)
		}
	}
	return out
}

// TestNodeSearchMatchesBruteForce: the pruned search returns the brute
// force's node for every probe, whatever node seeds it.
func TestNodeSearchMatchesBruteForce(t *testing.T) {
	for _, ne := range []int{1, 2, 4, 8} {
		m := New(ne, 4)
		s := NewNodeSearch(m)
		rng := rand.New(rand.NewSource(int64(ne)))
		for i, p := range searchProbes(m, int64(ne), 500) {
			want := bruteNearest(m, p)
			far := NodeRef{Elem: rng.Intn(m.NElems()), Idx: rng.Intn(16)}
			for _, hint := range []NodeRef{{Elem: -1}, want, far} {
				if got := s.Nearest(p, hint); got != want {
					t.Fatalf("ne%d probe %d %v hint %v: got %v, brute force %v", ne, i, p, hint, got, want)
				}
			}
		}
	}
}
