package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPartitionBalance(t *testing.T) {
	m := New(4, 4) // 96 elements
	for _, nranks := range []int{1, 2, 3, 5, 6, 7, 16, 96} {
		rankOf, err := m.Partition(nranks)
		if err != nil {
			t.Fatalf("nranks=%d: %v", nranks, err)
		}
		counts := make([]int, nranks)
		for _, r := range rankOf {
			counts[r]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Errorf("nranks=%d: imbalance %d..%d", nranks, min, max)
		}
		if min == 0 {
			t.Errorf("nranks=%d: empty rank", nranks)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m := New(1, 4) // 6 elements
	if _, err := m.Partition(0); err == nil {
		t.Error("nranks=0 accepted")
	}
	if _, err := m.Partition(7); err == nil {
		t.Error("more ranks than elements accepted")
	}
}

func TestSFCOrderIsPermutation(t *testing.T) {
	m := New(4, 4)
	order := m.SFCOrder()
	seen := make([]bool, m.NElems())
	for _, id := range order {
		if id < 0 || id >= m.NElems() || seen[id] {
			t.Fatalf("SFC order is not a permutation")
		}
		seen[id] = true
	}
}

func TestSFCLocality(t *testing.T) {
	// A contiguous SFC chunk must have far fewer cut edges than a
	// round-robin assignment — that's the entire point of the curve.
	m := New(8, 4) // 384 elements
	const nranks = 16
	sfc, err := m.Partition(nranks)
	if err != nil {
		t.Fatal(err)
	}
	rr := make([]int, m.NElems())
	for i := range rr {
		rr[i] = i % nranks
	}
	sfcCut, rrCut := m.CutEdges(sfc), m.CutEdges(rr)
	if sfcCut >= rrCut {
		t.Fatalf("SFC cut %d >= round-robin cut %d", sfcCut, rrCut)
	}
	// SFC boundary should be within a small factor of the perfect-square
	// perimeter bound: nranks patches of 24 elements, perimeter ~4*sqrt(24).
	perfect := nranks * 4 * int(math.Sqrt(24))
	if sfcCut > 2*perfect {
		t.Errorf("SFC cut %d far above perimeter bound %d", sfcCut, perfect)
	}
}

func TestMortonInterleaveProperty(t *testing.T) {
	// Morton code must be strictly monotone in each coordinate when the
	// other is fixed (it's a bijection on 16-bit pairs).
	f := func(x, y uint16) bool {
		m := mortonInterleave(uint32(x), uint32(y))
		return mortonInterleave(uint32(x)|0, uint32(y)) == m &&
			(x == 0xFFFF || mortonInterleave(uint32(x)+1, uint32(y)) > m) &&
			(y == 0xFFFF || mortonInterleave(uint32(x), uint32(y)+1) > m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkPartition(t *testing.T) {
	m := New(4, 4)
	const nranks = 5
	rankOf, err := m.Partition(nranks)
	if err != nil {
		t.Fatal(err)
	}
	for dead := 0; dead < nranks; dead++ {
		got, err := m.ShrinkPartition(rankOf, dead, nranks)
		if err != nil {
			t.Fatalf("dead=%d: %v", dead, err)
		}
		counts := make([]int, nranks-1)
		for id, r := range got {
			if r < 0 || r >= nranks-1 {
				t.Fatalf("dead=%d: element %d assigned to rank %d of %d", dead, id, r, nranks-1)
			}
			counts[r]++
			// Survivors keep their elements (renumbered).
			if old := rankOf[id]; old != dead {
				want := old
				if old > dead {
					want--
				}
				if r != want {
					t.Fatalf("dead=%d: survivor element %d moved from %d to %d", dead, id, old, r)
				}
			}
		}
		for r, n := range counts {
			if n == 0 {
				t.Fatalf("dead=%d: rank %d left empty", dead, r)
			}
		}
		// A contiguous SFC partition stays contiguous: walking the curve
		// must visit each rank's elements in one run.
		seen := map[int]bool{}
		prev := -1
		for _, id := range m.SFCOrder() {
			r := got[id]
			if r != prev {
				if seen[r] {
					t.Fatalf("dead=%d: rank %d's elements not contiguous on the SFC", dead, r)
				}
				seen[r] = true
				prev = r
			}
		}
	}
	if _, err := m.ShrinkPartition(rankOf, 9, nranks); err == nil {
		t.Fatal("out-of-range dead rank accepted")
	}
	one, _ := m.Partition(1)
	if _, err := m.ShrinkPartition(one, 0, 1); err == nil {
		t.Fatal("shrinking a 1-rank partition accepted")
	}
}

// TestHilbertOrderIsPermutation: every element appears exactly once.
func TestHilbertOrderIsPermutation(t *testing.T) {
	for _, ne := range []int{2, 3, 4, 5, 8} {
		m := New(ne, 4)
		order := m.HilbertOrder()
		seen := make([]bool, m.NElems())
		for _, id := range order {
			if id < 0 || id >= m.NElems() || seen[id] {
				t.Fatalf("ne=%d: bad or repeated id %d", ne, id)
			}
			seen[id] = true
		}
	}
}

// TestHilbertOrderAdjacency pins the property Morton lacks: for
// power-of-two face grids, consecutive elements along the Hilbert curve
// within a face are edge-adjacent — no diagonal quadrant jumps.
func TestHilbertOrderAdjacency(t *testing.T) {
	for _, ne := range []int{2, 4, 8} {
		m := New(ne, 4)
		order := m.HilbertOrder()
		for i := 1; i < len(order); i++ {
			a, b := m.Elements[order[i-1]], m.Elements[order[i]]
			if a.Face != b.Face {
				continue // face seams are allowed to jump
			}
			di, dj := a.FI-b.FI, a.FJ-b.FJ
			if di*di+dj*dj != 1 {
				t.Fatalf("ne=%d: Hilbert jump within face %d: (%d,%d)->(%d,%d)",
					ne, a.Face, a.FI, a.FJ, b.FI, b.FJ)
			}
		}
	}
}

// TestPartitionNeverWorseThanMorton is the partition-locality property:
// because Partition chops both candidate curves and keeps the smaller
// edge cut, its cut can never exceed the historical Morton-only chop,
// at any mesh size or rank count.
func TestPartitionNeverWorseThanMorton(t *testing.T) {
	for _, ne := range []int{2, 3, 4, 5, 6, 8} {
		m := New(ne, 4)
		for _, nranks := range []int{2, 3, 4, 5, 7, 8, 12, 16} {
			if nranks > m.NElems() {
				continue
			}
			rankOf, err := m.Partition(nranks)
			if err != nil {
				t.Fatal(err)
			}
			morton := chopOrder(m.SFCOrder(), nranks)
			if got, ref := m.CutEdges(rankOf), m.CutEdges(morton); got > ref {
				t.Errorf("ne=%d nranks=%d: Partition cut %d > Morton chop cut %d",
					ne, nranks, got, ref)
			}
		}
	}
}

// TestHilbertUsuallyBeatsMorton documents that the upgrade is real, not
// vacuous: summed over a representative sweep, the Hilbert chop's edge
// cut is strictly below Morton's.
func TestHilbertUsuallyBeatsMorton(t *testing.T) {
	totalH, totalM := 0, 0
	for _, ne := range []int{4, 6, 8} {
		m := New(ne, 4)
		for _, nranks := range []int{4, 6, 8, 12} {
			totalH += m.CutEdges(chopOrder(m.HilbertOrder(), nranks))
			totalM += m.CutEdges(chopOrder(m.SFCOrder(), nranks))
		}
	}
	if totalH >= totalM {
		t.Errorf("Hilbert total cut %d not below Morton total cut %d over the sweep", totalH, totalM)
	}
}

// TestShrinkPartitionFollowsOwningCurve: shrinking a Hilbert-chopped
// partition must keep it contiguous along the Hilbert curve (one run of
// curve positions per rank), and likewise for a Morton chop.
func TestShrinkPartitionFollowsOwningCurve(t *testing.T) {
	m := New(4, 4)
	const nranks = 6
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"hilbert", m.HilbertOrder()},
		{"morton", m.SFCOrder()},
	} {
		rankOf := chopOrder(tc.order, nranks)
		for dead := 0; dead < nranks; dead++ {
			out, err := m.ShrinkPartition(rankOf, dead, nranks)
			if err != nil {
				t.Fatal(err)
			}
			if b := orderBreaks(tc.order, out); b != nranks-2 {
				t.Errorf("%s dead=%d: %d breaks along owning curve, want %d (contiguous)",
					tc.name, dead, b, nranks-2)
			}
		}
	}
}
