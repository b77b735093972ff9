package sw

import (
	"strings"
	"testing"
)

func TestCoreGroupLayout(t *testing.T) {
	cg := NewCoreGroup(0)
	for i, c := range cg.CPEs {
		if c.ID != i || c.Row != i/MeshDim || c.Col != i%MeshDim {
			t.Fatalf("CPE %d has coords (%d,%d) id %d", i, c.Row, c.Col, c.ID)
		}
		if c.LDM == nil || c.DMA == nil {
			t.Fatalf("CPE %d missing LDM or DMA", i)
		}
	}
	if cg.MPE == nil {
		t.Fatal("missing MPE")
	}
}

func TestSpawnRunsAll64(t *testing.T) {
	cg := NewCoreGroup(0)
	var ran [CPEsPerCG]bool
	cg.Spawn(func(c *CPE) { ran[c.ID] = true })
	for i, r := range ran {
		if !r {
			t.Fatalf("CPE %d did not run", i)
		}
	}
}

func TestSpawnResetsLDM(t *testing.T) {
	cg := NewCoreGroup(0)
	cg.Spawn(func(c *CPE) { c.LDM.MustAlloc("x", 1000) })
	// A second launch has the whole 64 KB again.
	cg.Spawn(func(c *CPE) { c.LDM.MustAlloc("full", LDMBytes/F64Bytes) })
}

func TestSpawnPropagatesPanicWithCoords(t *testing.T) {
	cg := NewCoreGroup(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "CPE(3,5)") {
			t.Fatalf("panic missing CPE coords: %v", r)
		}
	}()
	cg.Spawn(func(c *CPE) {
		if c.Row == 3 && c.Col == 5 {
			panic("boom")
		}
	})
}

func TestCountersSumAndMax(t *testing.T) {
	cg := NewCoreGroup(0)
	cg.Spawn(func(c *CPE) {
		c.CountFlops(int64(c.ID + 1)) // 1..64 -> sum 2080, max 64
	})
	sum, max := cg.Counters()
	if sum.FlopsScalar != 2080 {
		t.Errorf("sum flops = %d, want 2080", sum.FlopsScalar)
	}
	if max.FlopsScalar != 64 {
		t.Errorf("max flops = %d, want 64", max.FlopsScalar)
	}
	cg.ResetCounters()
	sum, _ = cg.Counters()
	if sum.FlopsScalar+sum.FlopsVector != 0 {
		t.Error("counters not reset")
	}
}

func TestLDMPeakRecordedAfterSpawn(t *testing.T) {
	cg := NewCoreGroup(0)
	cg.Spawn(func(c *CPE) { c.LDM.MustAlloc("tile", 2048) })
	_, max := cg.Counters()
	if max.LDMPeak != 2048*F64Bytes {
		t.Fatalf("LDMPeak = %d, want %d", max.LDMPeak, 2048*F64Bytes)
	}
}

func TestDMAGetPut(t *testing.T) {
	cg := NewCoreGroup(0)
	main := make([]float64, 256)
	for i := range main {
		main[i] = float64(i)
	}
	out := make([]float64, 256)
	cg.Spawn(func(c *CPE) {
		if c.ID != 0 {
			return
		}
		tile := c.LDM.MustAlloc("tile", 256)
		c.DMA.Get(tile, main)
		for i := range tile {
			tile[i] *= 2
		}
		c.CountFlops(256)
		c.DMA.Put(out, tile)
	})
	for i := range out {
		if out[i] != 2*float64(i) {
			t.Fatalf("out[%d] = %v", i, out[i])
		}
	}
	sum, _ := cg.Counters()
	if sum.DMABytesIn != 256*F64Bytes || sum.DMABytesOut != 256*F64Bytes {
		t.Fatalf("DMA bytes = %d in / %d out", sum.DMABytesIn, sum.DMABytesOut)
	}
	if sum.DMAOps != 2 {
		t.Fatalf("DMA ops = %d", sum.DMAOps)
	}
}

func TestDMAStrided(t *testing.T) {
	cg := NewCoreGroup(0)
	// 8x8 row-major matrix in main memory; fetch a 4x4 sub-block.
	const dim = 8
	m := make([]float64, dim*dim)
	for i := range m {
		m[i] = float64(i)
	}
	got := make([]float64, 16)
	cg.Spawn(func(c *CPE) {
		if c.ID != 0 {
			return
		}
		tile := c.LDM.MustAlloc("blk", 16)
		c.DMA.GetStride(tile, m[2*dim+4:], 4, dim, 4) // block at (2,4)
		c.DMA.PutStride(m[2*dim+4:], tile, 4, dim, 4) // round trip
		copy(got, tile)
	})
	for r := 0; r < 4; r++ {
		for cc := 0; cc < 4; cc++ {
			want := float64((2+r)*dim + 4 + cc)
			if got[r*4+cc] != want {
				t.Fatalf("block[%d,%d] = %v, want %v", r, cc, got[r*4+cc], want)
			}
		}
	}
}

func TestDMAMismatchPanics(t *testing.T) {
	cg := NewCoreGroup(0)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	cg.Spawn(func(c *CPE) {
		if c.ID != 0 {
			return
		}
		tile := c.LDM.MustAlloc("t", 8)
		c.DMA.Get(tile, make([]float64, 4))
	})
}

func TestDMAGetSharedAmortizes(t *testing.T) {
	cg := NewCoreGroup(0)
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i)
	}
	cg.Spawn(func(c *CPE) {
		dst := c.LDM.MustAlloc("d", 64)
		c.DMA.GetShared(dst, src)
		for i := range dst {
			if dst[i] != float64(i) {
				t.Errorf("CPE %d: broadcast corrupted", c.ID)
				return
			}
		}
	})
	sum, _ := cg.Counters()
	// 64 CPEs x 64 values x 8 B = 32768 B if read separately; the
	// broadcast reads once: amortized shares sum back to one read.
	if want := int64(64 * F64Bytes); sum.DMABytesIn != want {
		t.Errorf("broadcast traffic = %d B, want %d (single read)", sum.DMABytesIn, want)
	}
}
