package sw

import "fmt"

// ScanKind selects one of the column scans of §7.4.
type ScanKind uint8

const (
	// ScanInclusive carries down the column (row 0 holds the top):
	// out[k] = base + the increments up to and including local[k].
	ScanInclusive ScanKind = iota
	// ScanExclusive carries down the column: out[k] = base + the
	// increments strictly before local[k]. The hydrostatic integral needs
	// pressure at layer interfaces, which is the exclusive scan of layer
	// thicknesses.
	ScanExclusive
	// ScanReverse carries up the column (row MeshDim-1 holds the
	// bottom): out[k] = base + the increments below local[k] +
	// local[k]*frac. With frac = 0.5 it is the midpoint geopotential
	// formula, with frac = 1 a plain inclusive upward scan.
	ScanReverse
)

// ColumnScanBatch computes m independent prefix sums distributed down
// (or up) one column of the CPE mesh — the three-stage accumulation
// algorithm of §7.4 that parallelizes the vertical pressure,
// geopotential and omega integrals of compute_and_apply_rhs.
//
// An atmospheric column of nlev layers is split into MeshDim contiguous
// groups, group i on mesh row i. The CPE passes its group for m node
// columns level-major, local[k*m+n] being level k of node n (the rhs
// slab layout), and one base per node; m = len(base). A row may own no
// levels (len(local) == 0); it still takes part. Only the head row's
// bases are read: row 0's for the downward scans, row MeshDim-1's for
// ScanReverse. frac is read by ScanReverse only. The result is written
// into out, which may alias local.
//
//	Stage 1, local accumulation: each CPE prefix-sums its own levels of
//	    every node, from 0.0, into out and its per-node block total run.
//	Stage 2, partial-sum exchange: the carry enters at the head row as
//	    the base, and every row passes carry+run to the next row of the
//	    column.
//	Stage 3, global accumulation: out[k] += carry.
//
// Stage 2 is one collective per mesh column (see joinScan): every CPE of
// the column joins it once with its block totals, and the last to join
// walks the chain for every node in row order. Each CPE is charged
// exactly what m one-node register chains would charge it: the stage-1
// and stage-3 flops of every node, and on every row that sends, m
// 32-byte register messages and one flop per node.
func ColumnScanBatch(c *CPE, kind ScanKind, local, out, base []float64, frac float64) {
	m := len(base)
	if m == 0 || len(local)%m != 0 || len(out) != len(local) {
		panic(fmt.Sprintf("sw: column scan of %d values into %d over %d nodes", len(local), len(out), m))
	}
	cr := c.cg.crew
	if cr == nil {
		panic("sw: column scan outside a Spawn launch")
	}
	n := len(local)
	run := cr.scanSlot(c.ID, m)
	clear(run)

	// Stage 1. Level-major, so every node's running total advances in
	// level order exactly as a one-node scan's would.
	switch kind {
	case ScanInclusive:
		for k := 0; k < n; k += m {
			for j := range run {
				run[j] += local[k+j]
				out[k+j] = run[j]
			}
		}
		c.CountFlops(int64(n))
	case ScanExclusive:
		for k := 0; k < n; k += m {
			for j := range run {
				x := local[k+j]
				out[k+j] = run[j]
				run[j] += x
			}
		}
		c.CountFlops(int64(n))
	case ScanReverse:
		for k := n - m; k >= 0; k -= m {
			for j := range run {
				x := local[k+j]
				out[k+j] = run[j] + x*frac
				run[j] += x
			}
		}
		c.CountFlops(int64(3 * n))
	default:
		panic(fmt.Sprintf("sw: unknown column scan kind %d", kind))
	}

	// Stage 2. The head row's carry is its base; it sends base+run.
	reverse := kind == ScanReverse
	head, tail := 0, MeshDim-1
	if reverse {
		head, tail = tail, head
	}
	if c.Row == head {
		for j := range run {
			run[j] = base[j] + run[j]
		}
	}
	if c.Row != tail {
		c.Ctr.RegMsgs += int64(m)
		c.Ctr.RegBytes += int64(m * VecWidth * F64Bytes)
		c.CountFlops(int64(m))
	}
	c.joinScan(reverse, m)
	carry := run
	if c.Row == head {
		carry = base
	}

	// Stage 3.
	for k := 0; k < n; k += m {
		for j, cj := range carry {
			out[k+j] += cj
		}
	}
	c.CountFlops(int64(n))
}

// ColumnScan is ColumnScanBatch with ScanInclusive on one node column:
// out[k] = base + the increments of the whole column up to and including
// local[k].
func ColumnScan(c *CPE, local, out []float64, base float64) {
	b := [1]float64{base}
	ColumnScanBatch(c, ScanInclusive, local, out, b[:], 0)
}
