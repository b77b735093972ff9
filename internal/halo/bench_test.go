package halo

import (
	"testing"

	"swcam/internal/mesh"
	"swcam/internal/mpirt"
)

func benchExchange(b *testing.B, overlap bool) {
	m := mesh.New(8, 4)
	const nranks = 8
	rankOf, err := m.Partition(nranks)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	global := makeField(m, 8, 1)
	local := scatterToRanks(global, plans)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mpirt.NewWorld(nranks)
		w.Run(func(c *mpirt.Comm) {
			if overlap {
				plans[c.Rank()].DSSOverlap(c, NodeMajor(8), nil, local[c.Rank()])
			} else {
				plans[c.Rank()].DSSOriginal(c, NodeMajor(8), local[c.Rank()])
			}
		})
	}
}

func BenchmarkDSSOriginal(b *testing.B) { benchExchange(b, false) }
func BenchmarkDSSOverlap(b *testing.B)  { benchExchange(b, true) }

func BenchmarkPlanBuild(b *testing.B) {
	m := mesh.New(8, 4)
	rankOf, _ := m.Partition(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPlan(m, rankOf, i%8)
	}
}

// BenchmarkDSSAssembly measures the rank-local work of one production
// exchange at dyn-intel's shape (ne4, 4 ranks, LevelMajor(8, 16), four
// fields): rank 0's plan packs every send buffer and assembles every
// shared node. The buffers are warm and the receive buffers hold one
// real exchange's messages, so no world is built per iteration.
//
//	go test -run '^$' -bench DSSAssembly -benchmem ./internal/halo
func BenchmarkDSSAssembly(b *testing.B) {
	const nranks, nlev, nf = 4, 8, 4
	m := mesh.New(4, 4)
	rankOf, err := m.Partition(nranks)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	fields := make([][][][]float64, nranks)
	for f := 0; f < nf; f++ {
		for r, local := range scatterToRanks(makeField(m, nlev, int64(f)), plans) {
			fields[r] = append(fields[r], local)
		}
	}
	lay := LevelMajor(nlev, m.Np*m.Np)
	err = mpirt.NewWorld(nranks).Run(func(c *mpirt.Comm) {
		if _, err := plans[c.Rank()].DSSOverlap(c, lay, nil, fields[c.Rank()]...); err != nil {
			mpirt.Fail(err)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	p, local := plans[0], fields[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range p.Neighbors {
			p.packNeighbor(&p.Neighbors[n], p.sendBufs[n], lay, nf, local...)
		}
		p.assemble(lay, local)
	}
}
