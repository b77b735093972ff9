package core

import (
	"bytes"
	"math"
	"testing"

	"swcam/internal/mesh"
	"swcam/internal/physics"
)

// oracleSampler is NewSampler's search before mesh.NodeSearch: every
// element in order, every node of an element not rejected by its first
// node, first strict minimum of GreatCircleDist. The reject is exact
// (no node lies 2*DAlpha from its element's first node), so this is the
// brute-force mapping at a tenth of its cost.
func oracleSampler(m *mesh.Mesh, nlon, nlat int) (elem, node []int32) {
	elem, node = make([]int32, nlon*nlat), make([]int32, nlon*nlat)
	npsq := m.Np * m.Np
	for j := 0; j < nlat; j++ {
		lat := -math.Pi/2 + (float64(j)+0.5)*math.Pi/float64(nlat)
		for i := 0; i < nlon; i++ {
			lon := (float64(i) + 0.5) * 2 * math.Pi / float64(nlon)
			p := mesh.Vec3{
				math.Cos(lat) * math.Cos(lon),
				math.Cos(lat) * math.Sin(lon),
				math.Sin(lat),
			}
			bestD := math.Inf(1)
			var be, bn int32
			for ei, e := range m.Elements {
				if d := mesh.GreatCircleDist(p, e.Pos[0]); d-2*e.DAlpha > bestD {
					continue
				}
				for n := 0; n < npsq; n++ {
					if d := mesh.GreatCircleDist(p, e.Pos[n]); d < bestD {
						bestD, be, bn = d, int32(ei), int32(n)
					}
				}
			}
			elem[j*nlon+i], node[j*nlon+i] = be, bn
		}
	}
	return elem, node
}

// TestSamplerMatchesOracle: the pruned, seeded search maps every grid
// point to the same node as the old scan, on the three grids the
// server's traffic uses.
func TestSamplerMatchesOracle(t *testing.T) {
	for _, ne := range []int{2, 4, 8} {
		m := mesh.New(ne, 4)
		for _, g := range [][2]int{{72, 36}, {144, 72}, {37, 19}} {
			s := NewSampler(m, g[0], g[1])
			elem, node := oracleSampler(m, g[0], g[1])
			for k := range elem {
				if s.elem[k] != elem[k] || s.node[k] != node[k] {
					t.Fatalf("ne%d %dx%d point %d: (%d,%d), oracle (%d,%d)",
						ne, g[0], g[1], k, s.elem[k], s.node[k], elem[k], node[k])
				}
			}
		}
	}
}

func TestSamplerCoversGrid(t *testing.T) {
	m := mesh.New(3, 4)
	s := NewSampler(m, 24, 12)
	for g := 0; g < 24*12; g++ {
		if s.elem[g] < 0 || int(s.elem[g]) >= m.NElems() {
			t.Fatalf("point %d mapped to element %d", g, s.elem[g])
		}
		if s.node[g] < 0 || s.node[g] >= 16 {
			t.Fatalf("point %d mapped to node %d", g, s.node[g])
		}
	}
}

func TestSamplerNearestIsClose(t *testing.T) {
	// The chosen node must be within one element diagonal of the target.
	m := mesh.New(4, 4)
	s := NewSampler(m, 36, 18)
	for j := 0; j < 18; j++ {
		lat := -math.Pi/2 + (float64(j)+0.5)*math.Pi/18
		for i := 0; i < 36; i++ {
			lon := (float64(i) + 0.5) * 2 * math.Pi / 36
			p := mesh.Vec3{math.Cos(lat) * math.Cos(lon), math.Cos(lat) * math.Sin(lon), math.Sin(lat)}
			g := j*36 + i
			e := m.Elements[s.elem[g]]
			d := mesh.GreatCircleDist(p, e.Pos[s.node[g]])
			if d > 2*e.DAlpha {
				t.Fatalf("point (%d,%d): nearest node %g rad away (element width %g)",
					i, j, d, e.DAlpha)
			}
		}
	}
}

func TestSamplerConstantField(t *testing.T) {
	m := mesh.New(2, 4)
	s := NewSampler(m, 16, 8)
	field := make([][]float64, m.NElems())
	for i := range field {
		field[i] = make([]float64, 3*16)
		for k := range field[i] {
			field[i][k] = 7.25
		}
	}
	out := make([]float64, 16*8)
	s.Sample(field, 1, 16, out)
	for _, v := range out {
		if v != 7.25 {
			t.Fatalf("constant field sampled as %v", v)
		}
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Dycore.Nlev = 8
	cfg.Dycore.Qsize = 1
	cfg.Physics = physics.HeldSuarezMode
	cfg.Dycore.Qsize = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Solver.InitBaroclinicWave(m.State)

	var buf bytes.Buffer
	sampler := NewSampler(m.Solver.Mesh, 18, 9)
	hw, err := NewHistoryWriter(&buf, sampler, []string{"T", "U", "V"})
	if err != nil {
		t.Fatal(err)
	}
	const nframes = 3
	for f := 0; f < nframes; f++ {
		if err := WriteHistoryFrameForModel(hw, m); err != nil {
			t.Fatal(err)
		}
		m.Run(1)
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	nlon, nlat, frames, err := ReadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nlon != 18 || nlat != 9 || len(frames) != nframes {
		t.Fatalf("decoded %dx%d, %d frames", nlon, nlat, len(frames))
	}
	for i, fr := range frames {
		if len(fr.Data) != 3 {
			t.Fatalf("frame %d has %d fields", i, len(fr.Data))
		}
		for name, vals := range fr.Data {
			if len(vals) != nlon*nlat {
				t.Fatalf("frame %d field %s length %d", i, name, len(vals))
			}
		}
		// Surface temperatures sampled in a physical range.
		for _, v := range fr.Data["T"] {
			if v < 150 || v > 350 {
				t.Fatalf("frame %d: surface T %v out of range", i, v)
			}
		}
	}
	// Frames advance in simulated time.
	if !(frames[0].Hours < frames[1].Hours && frames[1].Hours < frames[2].Hours) {
		t.Error("frame timestamps not increasing")
	}
	// The state evolved: T frames must differ between first and last.
	same := true
	for g := range frames[0].Data["T"] {
		if frames[0].Data["T"][g] != frames[2].Data["T"][g] {
			same = false
			break
		}
	}
	if same {
		t.Error("frames identical; model did not evolve")
	}
}

func TestHistoryRejectsGarbage(t *testing.T) {
	if _, _, _, err := ReadHistory(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("garbage history accepted")
	}
}
