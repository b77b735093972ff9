package halo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"swcam/internal/mesh"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// makeField builds a random per-element field over the whole mesh with
// the given per-node stride.
func makeField(m *mesh.Mesh, stride int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	np := m.Np
	f := make([][]float64, m.NElems())
	for i := range f {
		f[i] = make([]float64, np*np*stride)
		for k := range f[i] {
			f[i][k] = rng.NormFloat64()
		}
	}
	return f
}

// serialDSS applies the mesh-level DSS to a strided field, level by
// level, as the reference answer.
func serialDSS(m *mesh.Mesh, field [][]float64, stride int) {
	np := m.Np
	for l := 0; l < stride; l++ {
		lvl := make([][]float64, m.NElems())
		for i := range lvl {
			lvl[i] = make([]float64, np*np)
			for k := 0; k < np*np; k++ {
				lvl[i][k] = field[i][k*stride+l]
			}
		}
		m.DSS(lvl)
		for i := range lvl {
			for k := 0; k < np*np; k++ {
				field[i][k*stride+l] = lvl[i][k]
			}
		}
	}
}

// scatterToRanks splits a global field into per-rank local fields.
func scatterToRanks(field [][]float64, plans []*Plan) [][][]float64 {
	out := make([][][]float64, len(plans))
	for r, p := range plans {
		out[r] = make([][]float64, p.NLocal())
		for le, ge := range p.Elems {
			out[r][le] = append([]float64(nil), field[ge]...)
		}
	}
	return out
}

func runDistributedDSS(t *testing.T, m *mesh.Mesh, nranks, stride int, overlap bool) {
	t.Helper()
	rankOf, err := m.Partition(nranks)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, nranks)
	for r := 0; r < nranks; r++ {
		plans[r] = NewPlan(m, rankOf, r)
	}
	global := makeField(m, stride, 42)
	want := make([][]float64, len(global))
	for i := range global {
		want[i] = append([]float64(nil), global[i]...)
	}
	serialDSS(m, want, stride)

	local := scatterToRanks(global, plans)
	w := mpirt.NewWorld(nranks)
	w.Run(func(c *mpirt.Comm) {
		p := plans[c.Rank()]
		if overlap {
			p.DSSOverlap(c, NodeMajor(stride), nil, local[c.Rank()])
		} else {
			p.DSSOriginal(c, NodeMajor(stride), local[c.Rank()])
		}
	})

	for r, p := range plans {
		for le, ge := range p.Elems {
			for k := range local[r][le] {
				if math.Abs(local[r][le][k]-want[ge][k]) > 1e-12 {
					t.Fatalf("nranks=%d overlap=%v: elem %d idx %d: got %v want %v",
						nranks, overlap, ge, k, local[r][le][k], want[ge][k])
				}
			}
		}
	}
}

func TestDSSOriginalMatchesSerial(t *testing.T) {
	m := mesh.New(4, 4)
	for _, nranks := range []int{1, 2, 3, 6, 8} {
		runDistributedDSS(t, m, nranks, 1, false)
	}
}

func TestDSSOverlapMatchesSerial(t *testing.T) {
	m := mesh.New(4, 4)
	for _, nranks := range []int{1, 2, 3, 6, 8} {
		runDistributedDSS(t, m, nranks, 1, true)
	}
}

func TestDSSMultiLevel(t *testing.T) {
	m := mesh.New(3, 4)
	runDistributedDSS(t, m, 4, 5, false)
	runDistributedDSS(t, m, 4, 5, true)
}

func TestDSSBothFlavoursIdentical(t *testing.T) {
	// The redesigned exchange must be bit-identical to the original:
	// same arithmetic, different staging.
	m := mesh.New(4, 4)
	const nranks = 6
	const stride = 3
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	global := makeField(m, stride, 7)
	a := scatterToRanks(global, plans)
	b := scatterToRanks(global, plans)

	w := mpirt.NewWorld(nranks)
	w.Run(func(c *mpirt.Comm) { plans[c.Rank()].DSSOriginal(c, NodeMajor(stride), a[c.Rank()]) })
	w2 := mpirt.NewWorld(nranks)
	w2.Run(func(c *mpirt.Comm) { plans[c.Rank()].DSSOverlap(c, NodeMajor(stride), nil, b[c.Rank()]) })

	for r := range plans {
		for le := range a[r] {
			for k := range a[r][le] {
				if a[r][le][k] != b[r][le][k] {
					t.Fatalf("flavours differ at rank %d elem %d idx %d", r, le, k)
				}
			}
		}
	}
}

func TestDSSMultipleFields(t *testing.T) {
	m := mesh.New(3, 4)
	const nranks = 4
	const stride = 2
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	gu := makeField(m, stride, 1)
	gv := makeField(m, stride, 2)
	wantU := make([][]float64, len(gu))
	wantV := make([][]float64, len(gv))
	for i := range gu {
		wantU[i] = append([]float64(nil), gu[i]...)
		wantV[i] = append([]float64(nil), gv[i]...)
	}
	serialDSS(m, wantU, stride)
	serialDSS(m, wantV, stride)

	lu := scatterToRanks(gu, plans)
	lv := scatterToRanks(gv, plans)
	w := mpirt.NewWorld(nranks)
	w.Run(func(c *mpirt.Comm) {
		plans[c.Rank()].DSSOriginal(c, NodeMajor(stride), lu[c.Rank()], lv[c.Rank()])
	})
	for r, p := range plans {
		for le, ge := range p.Elems {
			for k := range lu[r][le] {
				if math.Abs(lu[r][le][k]-wantU[ge][k]) > 1e-12 ||
					math.Abs(lv[r][le][k]-wantV[ge][k]) > 1e-12 {
					t.Fatalf("multi-field DSS wrong at rank %d elem %d", r, ge)
				}
			}
		}
	}
}

func TestOverlapRunsInnerCompute(t *testing.T) {
	m := mesh.New(2, 4)
	const nranks = 2
	rankOf, _ := m.Partition(nranks)
	plans := []*Plan{NewPlan(m, rankOf, 0), NewPlan(m, rankOf, 1)}
	global := makeField(m, 1, 3)
	local := scatterToRanks(global, plans)
	ran := make([]bool, nranks)
	w := mpirt.NewWorld(nranks)
	w.Run(func(c *mpirt.Comm) {
		r := c.Rank()
		plans[r].DSSOverlap(c, NodeMajor(1), func() { ran[r] = true }, local[r])
	})
	for r, ok := range ran {
		if !ok {
			t.Fatalf("rank %d inner compute not run", r)
		}
	}
}

// TestStagingBytesOnlyInOriginal pins every byte counter of Stats to
// the plan, on both flavours: each neighbour's send entries (PackBytes,
// WireBytes) and receive entries (UnpackBytes, and StagingBytes on the
// original exchange only) times levels times fields times 8 bytes. A
// counter that charges buffer elements instead of bytes fails here.
func TestStagingBytesOnlyInOriginal(t *testing.T) {
	const nranks, levels, nf = 4, 3, 2
	m := mesh.New(4, 4)
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	for _, overlap := range []bool{false, true} {
		stats := make([]Stats, nranks)
		fields := make([][][][]float64, nranks)
		for f := 0; f < nf; f++ {
			for r, local := range scatterToRanks(makeField(m, levels, int64(5+f)), plans) {
				fields[r] = append(fields[r], local)
			}
		}
		w := mpirt.NewWorld(nranks)
		w.Run(func(c *mpirt.Comm) {
			r := c.Rank()
			var err error
			if overlap {
				stats[r], err = plans[r].DSSOverlap(c, NodeMajor(levels), nil, fields[r]...)
			} else {
				stats[r], err = plans[r].DSSOriginal(c, NodeMajor(levels), fields[r]...)
			}
			if err != nil {
				t.Error(err)
			}
		})
		var wireSum, unpackSum int64
		for r, p := range plans {
			var sendEntries, recvEntries int
			for _, nb := range p.Neighbors {
				sendEntries += len(nb.SendGroup)
				recvEntries += nb.RecvLen
			}
			if sendEntries == 0 || recvEntries == 0 {
				t.Fatalf("rank %d has no remote entries in a multi-rank DSS", r)
			}
			send := int64(sendEntries * levels * nf * 8)
			recv := int64(recvEntries * levels * nf * 8)
			want := Stats{PackBytes: send, UnpackBytes: recv, StagingBytes: recv,
				Msgs: int64(len(p.Neighbors)), WireBytes: send}
			if overlap {
				want.StagingBytes = 0
			}
			if stats[r] != want {
				t.Errorf("overlap=%v rank %d: stats %+v, want %+v", overlap, r, stats[r], want)
			}
			wireSum += stats[r].WireBytes
			unpackSum += stats[r].UnpackBytes
		}
		if wireSum != unpackSum {
			t.Errorf("overlap=%v: %d bytes sent but %d unpacked", overlap, wireSum, unpackSum)
		}
	}
}

func TestBoundaryInnerPartition(t *testing.T) {
	m := mesh.New(8, 4)
	const nranks = 8
	rankOf, _ := m.Partition(nranks)
	for r := 0; r < nranks; r++ {
		p := NewPlan(m, rankOf, r)
		if len(p.BoundaryElems)+len(p.InnerElems) != p.NLocal() {
			t.Fatalf("rank %d: boundary+inner != local", r)
		}
		if len(p.BoundaryElems) == 0 {
			t.Fatalf("rank %d: no boundary elements in a multi-rank partition", r)
		}
		// With 48 elements per rank on an SFC partition there must be a
		// non-trivial interior.
		if len(p.InnerElems) == 0 {
			t.Errorf("rank %d: no inner elements (nothing to overlap)", r)
		}
		// Boundary elements must be exactly those owning remote groups.
		isBoundary := map[int]bool{}
		for _, g := range p.Groups {
			if !g.Remote {
				continue
			}
			for _, ref := range g.Refs {
				isBoundary[ref.Elem] = true
			}
		}
		if len(isBoundary) != len(p.BoundaryElems) {
			t.Fatalf("rank %d: boundary set mismatch", r)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := mesh.New(4, 4)
	const nranks = 6
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	for r, p := range plans {
		for i, nb := range p.Neighbors {
			// The neighbour must list us back, with the same distinct
			// shared-node count, and its send schedule toward us must
			// match our expected receive length entry for entry (the
			// per-copy messages themselves are asymmetric: each side
			// sends one entry per copy it holds).
			var back *Neighbor
			for j := range plans[nb.Rank].Neighbors {
				if plans[nb.Rank].Neighbors[j].Rank == r {
					back = &plans[nb.Rank].Neighbors[j]
				}
			}
			if back == nil {
				t.Fatalf("rank %d lists %d but not vice versa", r, nb.Rank)
			}
			if back.Nodes != p.SharedNodes(i) {
				t.Fatalf("asymmetric shared-node count between %d and %d", r, nb.Rank)
			}
			if len(back.SendGroup) != nb.RecvLen {
				t.Fatalf("rank %d expects %d entries from %d, which sends %d",
					r, nb.RecvLen, nb.Rank, len(back.SendGroup))
			}
			if len(nb.SendGroup) != back.RecvLen {
				t.Fatalf("rank %d sends %d entries to %d, which expects %d",
					r, len(nb.SendGroup), nb.Rank, back.RecvLen)
			}
			if len(nb.SendGroup) != len(nb.SendRef) {
				t.Fatalf("rank %d: send schedule to %d has mismatched group/ref lists", r, nb.Rank)
			}
		}
	}
}

func TestSingleRankNoTraffic(t *testing.T) {
	m := mesh.New(2, 4)
	rankOf, _ := m.Partition(1)
	p := NewPlan(m, rankOf, 0)
	if len(p.Neighbors) != 0 {
		t.Fatal("single rank has neighbours")
	}
	field := makeField(m, 1, 9)
	w := mpirt.NewWorld(1)
	w.Run(func(c *mpirt.Comm) {
		st, _ := p.DSSOriginal(c, NodeMajor(1), field)
		if st.WireBytes != 0 || st.Msgs != 0 {
			t.Errorf("single-rank DSS sent traffic: %+v", st)
		}
	})
	// And it must still equal the serial DSS.
	want := makeField(m, 1, 9)
	serialDSS(m, want, 1)
	for i := range field {
		for k := range field[i] {
			if math.Abs(field[i][k]-want[i][k]) > 1e-12 {
				t.Fatal("single-rank DSS wrong")
			}
		}
	}
}

// Property: the distributed DSS matches the serial DSS for RANDOM
// (non-SFC, possibly disconnected) partitions — the plan must not rely
// on rank territories being contiguous patches.
func TestDSSRandomPartitionsProperty(t *testing.T) {
	m := mesh.New(3, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nranks = 5
		rankOf := make([]int, m.NElems())
		// Random assignment, but every rank gets at least one element.
		for i := range rankOf {
			rankOf[i] = rng.Intn(nranks)
		}
		for r := 0; r < nranks; r++ {
			rankOf[rng.Intn(m.NElems())] = r
		}
		plans := make([]*Plan, nranks)
		for r := range plans {
			plans[r] = NewPlan(m, rankOf, r)
		}
		global := makeField(m, 2, seed)
		want := make([][]float64, len(global))
		for i := range global {
			want[i] = append([]float64(nil), global[i]...)
		}
		serialDSS(m, want, 2)
		local := scatterToRanks(global, plans)
		w := mpirt.NewWorld(nranks)
		w.Run(func(c *mpirt.Comm) {
			plans[c.Rank()].DSSOverlap(c, NodeMajor(2), nil, local[c.Rank()])
		})
		for r, p := range plans {
			for le, ge := range p.Elems {
				for k := range local[r][le] {
					if math.Abs(local[r][le][k]-want[ge][k]) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The real §7.6 usage: boundary elements hold values before the call,
// inner elements are produced by computeInner DURING the exchange. The
// final field must equal the serial DSS of the complete data — i.e. the
// overlap window is semantically invisible.
func TestOverlapComputeInnerParticipatesInDSS(t *testing.T) {
	m := mesh.New(4, 4)
	const nranks = 4
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	global := makeField(m, 2, 21)
	want := make([][]float64, len(global))
	for i := range global {
		want[i] = append([]float64(nil), global[i]...)
	}
	serialDSS(m, want, 2)

	// Local copies start with boundary elements filled and inner
	// elements zeroed; computeInner writes the true inner values.
	local := scatterToRanks(global, plans)
	for r, p := range plans {
		for _, le := range p.InnerElems {
			for k := range local[r][le] {
				local[r][le][k] = 0
			}
		}
	}
	w := mpirt.NewWorld(nranks)
	w.Run(func(c *mpirt.Comm) {
		r := c.Rank()
		p := plans[r]
		p.DSSOverlap(c, NodeMajor(2), func() {
			for _, le := range p.InnerElems {
				copy(local[r][le], global[p.Elems[le]])
			}
		}, local[r])
	})
	for r, p := range plans {
		for le, ge := range p.Elems {
			for k := range local[r][le] {
				if math.Abs(local[r][le][k]-want[ge][k]) > 1e-12 {
					t.Fatalf("rank %d elem %d idx %d: %v != %v",
						r, ge, k, local[r][le][k], want[ge][k])
				}
			}
		}
	}
}

// NodeMajor is the layout with all of a node's levels contiguous.
func NodeMajor(levels int) Layout { return Layout{Levels: levels, NodeStride: levels, LevelStride: 1} }

// SharedNodes returns the count of distinct nodes this rank exchanges
// with neighbour i — the per-message element count used by the machine
// model. Symmetric between the two ends of a neighbour pair.
func (p *Plan) SharedNodes(i int) int { return p.Neighbors[i].Nodes }

// TestNeighborsAreExactlyNodeSharers pins Plan.Neighbors to the ranks
// that hold a copy of some GLL node this rank also holds, ascending, each
// sharing at least one node — no rank that shares nothing, and none
// missing. The partitions give some ranks fewer neighbours than there
// are other ranks, so a plan that listed every rank would fail too.
func TestNeighborsAreExactlyNodeSharers(t *testing.T) {
	for _, tc := range []struct{ ne, nranks int }{{4, 12}, {4, 24}, {8, 16}} {
		m := mesh.New(tc.ne, 4)
		rankOf, err := m.Partition(tc.nranks)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle: for every node, every pair of distinct ranks
		// holding a copy of it are neighbours.
		sharers := make([]map[int]bool, tc.nranks)
		for r := range sharers {
			sharers[r] = map[int]bool{}
		}
		for _, refs := range m.NodeElems {
			for _, a := range refs {
				for _, b := range refs {
					if ra, rb := rankOf[a.Elem], rankOf[b.Elem]; ra != rb {
						sharers[ra][rb] = true
					}
				}
			}
		}
		partial := false
		for r := 0; r < tc.nranks; r++ {
			p := NewPlan(m, rankOf, r)
			var got, want []int
			for _, nb := range p.Neighbors {
				got = append(got, nb.Rank)
				if nb.Nodes == 0 || nb.RecvLen == 0 || len(nb.SendGroup) == 0 {
					t.Errorf("ne%d/%d ranks: rank %d lists rank %d with nothing to exchange", tc.ne, tc.nranks, r, nb.Rank)
				}
			}
			for nb := 0; nb < tc.nranks; nb++ {
				if sharers[r][nb] {
					want = append(want, nb)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("ne%d/%d ranks: rank %d neighbours %v, want %v", tc.ne, tc.nranks, r, got, want)
			}
			partial = partial || len(want) < tc.nranks-1
		}
		if !partial {
			t.Errorf("ne%d/%d ranks: every rank neighbours every other; the case pins nothing", tc.ne, tc.nranks)
		}
	}
}

// TestInstrumentEitherSink: a plan instrumented with only a registry
// feeds the halo.* counters, and one instrumented with only a tracer
// records its exchange spans — either sink alone turns observation on.
func TestInstrumentEitherSink(t *testing.T) {
	const nranks, levels = 3, 2
	m := mesh.New(2, 4)
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	exchange := func() (msgs int64) {
		local := scatterToRanks(makeField(m, levels, 9), plans)
		stats := make([]Stats, nranks)
		err := mpirt.NewWorld(nranks).Run(func(c *mpirt.Comm) {
			r := c.Rank()
			var err error
			if stats[r], err = plans[r].DSSOverlap(c, NodeMajor(levels), nil, local[r]); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			msgs += s.Msgs
		}
		return msgs
	}

	reg := obs.NewRegistry()
	for _, p := range plans {
		p.Instrument(nil, reg)
	}
	msgs := exchange()
	if got := reg.CounterValue("halo.msgs"); msgs == 0 || got != msgs {
		t.Errorf("registry-only plans counted halo.msgs = %d, want the %d messages sent", got, msgs)
	}

	tr := obs.NewTracer()
	for _, p := range plans {
		p.Instrument(tr, nil)
	}
	exchange()
	if got := tr.Len(); got != nranks {
		t.Errorf("tracer-only plans recorded %d spans, want one exchange span per rank (%d)", got, nranks)
	}
}
