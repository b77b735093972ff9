package halo

import (
	"fmt"
	"math"
	"testing"

	"swcam/internal/mesh"
	"swcam/internal/mpirt"
)

// The strip assembly that the field-major assembly replaced, kept as its
// oracle. It walks group → field → copy: one [levels] strip per (group,
// field), each term added to every level of the strip before the next,
// local copies weighted in place from the field, received copies read
// from the receive buffers, and the strip then scattered into every
// local copy.

func (p *Plan) stripResolveLocal(strip []float64, lay Layout, fields [][][]float64) {
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if g.Remote {
			continue
		}
		for _, field := range fields {
			clear(strip)
			for r := range g.Refs {
				addCopy(strip, g, r, lay, field)
			}
			scatterStrip(strip, g, lay, field)
		}
	}
}

// stripAssembleRemote derives each remote-shared node's chain from the
// mesh rather than from the plan's compiled one: every copy in
// mesh.NodeElems order, a received copy taking the next entry of its
// owner's receive buffer.
func (p *Plan) stripAssembleRemote(strip []float64, m *mesh.Mesh, rankOf []int, lay Layout, fields [][][]float64) {
	nf := len(fields)
	nbOf := map[int]int{}
	for i, nb := range p.Neighbors {
		nbOf[nb.Rank] = i
	}
	next := make([]int, len(p.Neighbors)) // the next receive entry from each neighbour
	type term struct{ ref, nb, pos int }  // ref >= 0: local copy; else received
	for _, refs := range m.NodeElems {
		var g Group
		var chain []term
		for _, r := range refs {
			if rankOf[r.Elem] == p.Rank {
				chain = append(chain, term{ref: len(g.Refs)})
				g.Refs = append(g.Refs, LocalRef{Elem: p.LocalOf[r.Elem], Node: r.Idx})
				g.W = append(g.W, m.Elements[r.Elem].DSSW[r.Idx])
				continue
			}
			chain = append(chain, term{ref: -1, nb: nbOf[rankOf[r.Elem]]})
		}
		if len(g.Refs) == 0 || len(g.Refs) == len(chain) {
			continue // not on this rank, or purely local
		}
		for k, t := range chain {
			if t.ref < 0 {
				chain[k].pos = next[t.nb]
				next[t.nb]++
			}
		}
		for f, field := range fields {
			clear(strip)
			for _, t := range chain {
				if t.ref >= 0 {
					addCopy(strip, &g, t.ref, lay, field)
					continue
				}
				for l, v := range p.recvBufs[t.nb][(t.pos*nf+f)*len(strip):][:len(strip)] {
					strip[l] += v
				}
			}
			scatterStrip(strip, &g, lay, field)
		}
	}
}

// addCopy adds local copy r of group g, weighted, to every level of strip.
func addCopy(strip []float64, g *Group, r int, lay Layout, field [][]float64) {
	w, src := g.W[r], field[g.Refs[r].Elem][g.Refs[r].Node*lay.NodeStride:]
	for l := range strip {
		strip[l] += w * src[l*lay.LevelStride]
	}
}

// scatterStrip writes the assembled strip into every local copy of g.
func scatterStrip(strip []float64, g *Group, lay Layout, field [][]float64) {
	for _, ref := range g.Refs {
		dst := field[ref.Elem][ref.Node*lay.NodeStride:]
		for l, v := range strip {
			dst[l*lay.LevelStride] = v
		}
	}
}

// layoutField builds a random field laid out as lay, with level 1 of
// every node set to -0.0: a shared node whose copies are all -0.0 sums
// to +0.0 only when its sum starts from 0.0, as the canonical chain's
// does.
func layoutField(m *mesh.Mesh, lay Layout, seed int64) [][]float64 {
	f := makeField(m, lay.Levels, seed)
	if lay.Levels < 2 {
		return f
	}
	for _, e := range f {
		for n := 0; n < m.Np*m.Np; n++ {
			e[n*lay.NodeStride+lay.LevelStride] = math.Copysign(0, -1)
		}
	}
	return f
}

// TestAssemblyMatchesStripOracle is a bitwise differential test of the
// field-major assembly against the strip oracle, in the layouts both
// production (LevelMajor, level stride 16) and the other tests use
// (NodeMajor), for one and four fields, on both flavours. Every rank
// keeps a copy of its fields from before the exchange; after the
// exchange the oracle assembles that copy from the same receive buffers
// and must produce the same bits.
func TestAssemblyMatchesStripOracle(t *testing.T) {
	const nlev = 5
	var local2, local4, localN, remote int
	for _, ne := range []int{2, 4, 8} {
		m := mesh.New(ne, 4)
		for _, nranks := range []int{1, 2, 3, 4, 64} {
			if nranks > m.NElems() {
				continue
			}
			rankOf, err := m.Partition(nranks)
			if err != nil {
				t.Fatal(err)
			}
			plans := make([]*Plan, nranks)
			for r := range plans {
				plans[r] = NewPlan(m, rankOf, r)
				local2 += len(plans[r].local2)
				local4 += len(plans[r].local4)
				localN += len(plans[r].localN)
				remote += len(plans[r].remote)
			}
			for _, lay := range []Layout{LevelMajor(nlev, m.Np*m.Np), NodeMajor(nlev)} {
				for _, nf := range []int{1, 4} {
					for _, overlap := range []bool{false, true} {
						name := fmt.Sprintf("ne%d/%d ranks/%+v/%d fields/overlap=%v", ne, nranks, lay, nf, overlap)
						diffAgainstOracle(t, name, m, rankOf, plans, lay, nf, overlap)
					}
				}
			}
		}
	}
	if local2 == 0 || local4 == 0 || localN == 0 || remote == 0 {
		t.Errorf("the sweep misses a group shape: %d edge, %d corner, %d other local groups, %d remote",
			local2, local4, localN, remote)
	}
}

func diffAgainstOracle(t *testing.T, name string, m *mesh.Mesh, rankOf []int, plans []*Plan, lay Layout, nf int, overlap bool) {
	t.Helper()
	nranks := len(plans)
	got := make([][][][]float64, nranks)  // [rank][field][elem][value]
	want := make([][][][]float64, nranks) // the oracle's copy
	for f := 0; f < nf; f++ {
		global := layoutField(m, lay, int64(31+f))
		a, b := scatterToRanks(global, plans), scatterToRanks(global, plans)
		for r := range plans {
			got[r] = append(got[r], a[r])
			want[r] = append(want[r], b[r])
		}
	}
	err := mpirt.NewWorld(nranks).Run(func(c *mpirt.Comm) {
		r := c.Rank()
		p := plans[r]
		var err error
		if overlap {
			_, err = p.DSSOverlap(c, lay, nil, got[r]...)
		} else {
			_, err = p.DSSOriginal(c, lay, got[r]...)
		}
		if err != nil {
			mpirt.Fail(err)
		}
		strip := make([]float64, lay.Levels)
		p.stripResolveLocal(strip, lay, want[r])
		p.stripAssembleRemote(strip, m, rankOf, lay, want[r])
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for r := range plans {
		for f := range got[r] {
			for e := range got[r][f] {
				for k, v := range got[r][f][e] {
					if w := want[r][f][e][k]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s: rank %d field %d elem %d value %d: got %x, oracle %x",
							name, r, f, e, k, math.Float64bits(v), math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestDSSZeroFieldWindow pins the zero-field exchange: with no fields
// and a real window, DSSOverlap runs the window exactly once on every
// rank, sends nothing and returns zero Stats.
func TestDSSZeroFieldWindow(t *testing.T) {
	const nranks = 3
	m := mesh.New(2, 4)
	rankOf, err := m.Partition(nranks)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
		if len(plans[r].Neighbors) == 0 {
			t.Fatalf("rank %d has no neighbours; the case pins nothing", r)
		}
	}
	ran := make([]int, nranks)
	stats := make([]Stats, nranks)
	w := mpirt.NewWorld(nranks)
	err = w.Run(func(c *mpirt.Comm) {
		r := c.Rank()
		var err error
		stats[r], err = plans[r].DSSOverlap(c, LevelMajor(4, m.Np*m.Np), func() { ran[r]++ })
		if err != nil {
			mpirt.Fail(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range plans {
		if ran[r] != 1 {
			t.Errorf("rank %d ran the window %d times, want 1", r, ran[r])
		}
		if stats[r] != (Stats{}) {
			t.Errorf("rank %d: stats %+v, want zero", r, stats[r])
		}
		if ms := w.Stats(r); ms.MsgsSent != 0 || ms.BytesSent != 0 {
			t.Errorf("rank %d sent %d messages (%d bytes), want none", r, ms.MsgsSent, ms.BytesSent)
		}
	}
}
