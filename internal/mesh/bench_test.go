package mesh

import (
	"math"
	"testing"
)

func BenchmarkMeshBuildNe8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(8, 4)
	}
}

func BenchmarkDSS(b *testing.B) {
	m := New(8, 4)
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, 16)
		for k := range field[i] {
			field[i][k] = float64(i + k)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DSS(field)
	}
}

func BenchmarkPartition(b *testing.B) {
	m := New(16, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Partition(64); err != nil {
			b.Fatal(err)
		}
	}
}

// nodeSearchGrid is the cell-centred 72x36 lat-lon grid of the server's
// default field query, in row order.
func nodeSearchGrid() []Vec3 {
	var out []Vec3
	for j := 0; j < 36; j++ {
		lat := -math.Pi/2 + (float64(j)+0.5)*math.Pi/36
		for i := 0; i < 72; i++ {
			lon := (float64(i) + 0.5) * 2 * math.Pi / 72
			out = append(out, Vec3{math.Cos(lat) * math.Cos(lon), math.Cos(lat) * math.Sin(lon), math.Sin(lat)})
		}
	}
	return out
}

// BenchmarkNodeSearchSweep is one sampler build's search on ne4: the
// grid in row order, each point seeded with the previous answer.
func BenchmarkNodeSearchSweep(b *testing.B) {
	s, grid := NewNodeSearch(New(4, 4)), nodeSearchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := NodeRef{Elem: -1}
		for _, p := range grid {
			at = s.Nearest(p, at)
		}
	}
}

// BenchmarkNodeSearchPoint is the /v1/point search on ne4: one
// unseeded query per op.
func BenchmarkNodeSearchPoint(b *testing.B) {
	s, grid := NewNodeSearch(New(4, 4)), nodeSearchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Nearest(grid[i%len(grid)], NodeRef{Elem: -1})
	}
}
