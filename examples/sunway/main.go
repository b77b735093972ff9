// Sunway: a guided tour of the SW26010 simulator itself — the
// scratchpad discipline, register-communication scans, and the shuffle
// transposition — independent of the climate model. Useful as the
// smallest possible template for porting a new kernel the paper's way.
package main

import (
	"fmt"

	"swcam/internal/sw"
)

func main() {
	cg := sw.NewCoreGroup(0)

	// 1. The 64 KB LDM is a hard wall: this allocation plan fits...
	fmt.Println("== LDM discipline ==")
	cg.Spawn(func(c *sw.CPE) {
		if c.ID != 0 {
			return
		}
		tile := c.LDM.MustAlloc("tile", 4096) // 32 KB
		scratch := c.LDM.MustAlloc("scratch", 2048)
		fmt.Printf("allocated %d B, %d B free\n", c.LDM.Used(), c.LDM.Free())
		_ = tile
		_ = scratch
		// ...and this one would not: Alloc returns the overflow error the
		// paper's footprint tool exists to prevent.
		if _, err := c.LDM.Alloc("too big", 4096); err != nil {
			fmt.Println("overflow rejected:", err)
		}
	})

	// 2. The three-stage column scan of §7.4: a 128-level prefix sum
	// distributed over the 8 mesh rows. Each row sums its 16 levels, the
	// carries pass down the mesh column — charged as one register message
	// per row, run as one collective of the column — and each row adds
	// its carry. sw.ColumnScanBatch does the same for many node columns
	// at once.
	fmt.Println("\n== register-communication scan (Figure 2) ==")
	const perCPE = 16
	results := make([]float64, 128)
	cg.Spawn(func(c *sw.CPE) {
		if c.Col != 0 {
			return // one column of the mesh suffices
		}
		local := c.LDM.MustAlloc("local", perCPE)
		out := c.LDM.MustAlloc("out", perCPE)
		for k := range local {
			local[k] = 1 // layer thickness 1 => prefix = layer index + 1
		}
		sw.ColumnScan(c, local, out, 0)
		copy(results[c.Row*perCPE:(c.Row+1)*perCPE], out)
	})
	fmt.Printf("prefix sums: p[0]=%.0f p[63]=%.0f p[127]=%.0f\n",
		results[0], results[63], results[127])

	// 3. The two-level transposition of §7.5: a 32x32 matrix flipped
	// across one CPE row with 8 shuffles per 4x4 block plus XOR-phase
	// register exchanges.
	fmt.Println("\n== shuffle + register transposition (Figure 3) ==")
	const dim = sw.MeshDim * sw.BlockDim
	m := make([]float64, dim*dim)
	for i := range m {
		m[i] = float64(i)
	}
	cg.ResetCounters()
	cg.Spawn(func(c *sw.CPE) {
		if c.Row != 0 {
			return
		}
		blocks := make([][]float64, sw.MeshDim)
		for j := range blocks {
			blocks[j] = c.LDM.MustAlloc("blk", 16)
		}
		sw.GatherBlocks(c, m, dim, c.Col, blocks)
		sw.RowTranspose(c, blocks)
		sw.ScatterBlocks(c, m, dim, c.Col, blocks)
	})
	sum, _ := cg.Counters()
	fmt.Printf("m[0][1] -> %.0f (was 1), m[1][0] -> %.0f (was 32)\n", m[1], m[dim])
	fmt.Printf("events: %d shuffles, %d register msgs, %d DMA ops\n",
		sum.Shuffles, sum.RegMsgs, sum.DMAOps)
}
