package sw

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// RegSendScalar sends a single float64 through the register fabric,
// occupying a full register slot as on hardware.
func (c *CPE) RegSendScalar(drow, dcol int, x float64) {
	c.RegSend(drow, dcol, Vec4{x, 0, 0, 0})
}

// RegRecvScalar receives a single float64 sent with RegSendScalar.
func (c *CPE) RegRecvScalar(srow, scol int) float64 {
	return c.RegRecv(srow, scol)[0]
}

// chainScan1 is the point-to-point carry chain of §7.4 on one node
// column: stage 1 locally, then a scalar register received from the
// previous row and carry+run sent to the next one, then stage 3. It is
// the scan as kernels ran it before the column collective, kept as the
// oracle ColumnScanBatch must reproduce bit for bit and counter for
// counter, and as a kernel that exercises back-pressure switching.
func chainScan1(c *CPE, kind ScanKind, local, out []float64, base, frac float64) {
	n := len(local)
	run := 0.0
	switch kind {
	case ScanInclusive:
		for k := 0; k < n; k++ {
			run += local[k]
			out[k] = run
		}
		c.CountFlops(int64(n))
	case ScanExclusive:
		for k := 0; k < n; k++ {
			out[k] = run
			run += local[k]
		}
		c.CountFlops(int64(n))
	case ScanReverse:
		for k := n - 1; k >= 0; k-- {
			out[k] = run + local[k]*frac
			run += local[k]
		}
		c.CountFlops(int64(3 * n))
	}
	prev, next := c.Row-1, c.Row+1
	if kind == ScanReverse {
		prev, next = next, prev
	}
	carry := base
	if uint(prev) < MeshDim {
		carry = c.RegRecvScalar(prev, c.Col)
	}
	if uint(next) < MeshDim {
		c.RegSendScalar(next, c.Col, carry+run)
		c.CountFlops(1)
	}
	for k := 0; k < n; k++ {
		out[k] += carry
	}
	c.CountFlops(int64(n))
}

// chainScan is the oracle of ColumnScanBatch: one chainScan1 per node of
// the level-major layout, in node order.
func chainScan(c *CPE, kind ScanKind, local, out, base []float64, frac float64) {
	m := len(base)
	if m == 1 {
		chainScan1(c, kind, local, out, base[0], frac)
		return
	}
	nl := len(local) / m
	in, res := make([]float64, nl), make([]float64, nl)
	for j := 0; j < m; j++ {
		for k := range in {
			in[k] = local[k*m+j]
		}
		chainScan1(c, kind, in, res, base[j], frac)
		for k, v := range res {
			out[k*m+j] = v
		}
	}
}

// scanValue draws a scan input: mixed signs and magnitudes, with exact
// zeros of both signs so the 0.0 start of stage 1 is checked bitwise.
func scanValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
}

// TestColumnScanBatchMatchesChain is the differential test of the column
// collective against the point-to-point chain: every scan shape, both
// fracs, one and sixteen nodes, and rows holding 0, 1, 3 or 16 levels
// (uniform and mixed along the column), on all eight mesh columns at
// once with random increments and bases. Outputs must be bit-equal and
// every CPE's counters equal to the oracle's.
func TestColumnScanBatchMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	profiles := [][MeshDim]int{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{3, 3, 3, 3, 3, 3, 3, 3},
		{16, 16, 16, 16, 16, 16, 16, 16},
		{3, 16, 0, 1, 3, 0, 16, 1},
	}
	for _, kind := range []ScanKind{ScanInclusive, ScanExclusive, ScanReverse} {
		for _, frac := range []float64{0.5, 1} {
			for _, m := range []int{1, 16} {
				for pi, levels := range profiles {
					var local, base, got, want [CPEsPerCG][]float64
					for id := range local {
						n := levels[id/MeshDim] * m
						local[id] = make([]float64, n)
						for i := range local[id] {
							local[id][i] = scanValue(rng)
						}
						base[id] = make([]float64, m)
						for i := range base[id] {
							base[id][i] = scanValue(rng)
						}
						got[id], want[id] = make([]float64, n), make([]float64, n)
					}
					batch, oracle := NewCoreGroup(0), NewCoreGroup(1)
					batch.Spawn(func(c *CPE) {
						ColumnScanBatch(c, kind, local[c.ID], got[c.ID], base[c.ID], frac)
					})
					oracle.Spawn(func(c *CPE) {
						chainScan(c, kind, local[c.ID], want[c.ID], base[c.ID], frac)
					})
					for id := range got {
						for i := range got[id] {
							if math.Float64bits(got[id][i]) != math.Float64bits(want[id][i]) {
								t.Fatalf("kind %d frac %v m %d profile %d CPE %d value %d: batch %v, chain %v",
									kind, frac, m, pi, id, i, got[id][i], want[id][i])
							}
						}
						if g, w := batch.CPEs[id].Ctr, oracle.CPEs[id].Ctr; g != w {
							t.Fatalf("kind %d frac %v m %d profile %d CPE %d: counters %+v, chain %+v",
								kind, frac, m, pi, id, g, w)
						}
					}
				}
			}
		}
	}
}

// TestColumnScanCollectiveFaults: a column collective that cannot
// complete, or that would deliver out of order, faults the launch naming
// the CPE, and the core group launches again afterwards.
func TestColumnScanCollectiveFaults(t *testing.T) {
	scan := func(c *CPE) {
		var v [1]float64
		ColumnScan(c, v[:], v[:], 0)
	}
	for _, tc := range []struct {
		name string
		fn   func(c *CPE)
		want string
	}{
		{"member returns without joining", func(c *CPE) {
			if c.ID != cpeID(3, 0) {
				scan(c)
			}
		}, "sw: CPE(2,0) faulted: register communication deadlock: waiting on CPE(3,0), which has returned"},
		{"mismatched node count", func(c *CPE) {
			if c.ID == cpeID(5, 0) {
				var v [2]float64
				ColumnScanBatch(c, ScanInclusive, v[:], v[:], v[:], 0)
				return
			}
			scan(c)
		}, "sw: CPE(5,0) faulted: sw: column scan (down, m=2) joins a collective (down, m=1)"},
		{"mismatched direction", func(c *CPE) {
			if c.ID == cpeID(5, 0) {
				var v [1]float64
				ColumnScanReverse(c, v[:], v[:], 0, 1)
				return
			}
			scan(c)
		}, "sw: CPE(5,0) faulted: sw: column scan (up, m=1) joins a collective (down, m=1)"},
		{"joining over a register in flight", func(c *CPE) {
			switch c.ID {
			case cpeID(2, 0):
				c.RegSendScalar(3, 0, 1)
				scan(c)
			case cpeID(3, 0):
				scan(c)
				c.RegRecvScalar(2, 0)
			default:
				scan(c)
			}
		}, "sw: CPE(3,0) faulted: sw: column scan would overtake 1 register(s) in flight from CPE(2,0) to CPE(3,0)"},
		{"sending to a member that has joined", func(c *CPE) {
			// Upward, so row 2 joins before row 3 sends to it.
			var v [1]float64
			switch c.ID {
			case cpeID(3, 0):
				c.RegSendScalar(2, 0, 1)
				ColumnScanReverse(c, v[:], v[:], 0, 1)
			case cpeID(2, 0):
				ColumnScanReverse(c, v[:], v[:], 0, 1)
				c.RegRecvScalar(3, 0)
			default:
				ColumnScanReverse(c, v[:], v[:], 0, 1)
			}
		}, "sw: CPE(3,0) faulted: sw: column scan would overtake 1 register(s) in flight from CPE(3,0) to CPE(2,0)"},
	} {
		cg := NewCoreGroup(0)
		if msg := spawnFault(t, cg, tc.fn); msg != tc.want {
			t.Errorf("%s: fault = %q, want %q", tc.name, msg, tc.want)
		}
		scanColumns(t, cg)
	}

	// A register against the chain's direction is not on its path, and
	// one its receiver drains before joining is delivered in order: the
	// launch completes.
	cg := NewCoreGroup(0)
	var up, down float64
	cg.Spawn(func(c *CPE) {
		switch c.ID {
		case cpeID(3, 0):
			c.RegSendScalar(2, 0, 42)
			down = c.RegRecvScalar(2, 0)
			scan(c)
		case cpeID(2, 0):
			c.RegSendScalar(3, 0, 7)
			scan(c)
			up = c.RegRecvScalar(3, 0)
		default:
			scan(c)
		}
	})
	if up != 42 || down != 7 {
		t.Fatalf("registers around a downward scan arrived as up %v, down %v; want 42, 7", up, down)
	}
}

// TestColumnScanIdleColumnsCostNothing: when only mesh column 0 scans,
// the other columns neither block it nor pay for it, and column 0 pays
// what its chain charges.
func TestColumnScanIdleColumnsCostNothing(t *testing.T) {
	cg := NewCoreGroup(0)
	var out [MeshDim][2]float64
	cg.Spawn(func(c *CPE) {
		if c.Col != 0 {
			return
		}
		local := [2]float64{1, 2}
		ColumnScanExclusive(c, local[:], out[c.Row][:], 10)
	})
	for row := range out {
		if want := [2]float64{10 + 3*float64(row), 11 + 3*float64(row)}; out[row] != want {
			t.Errorf("row %d: exclusive scan = %v, want %v", row, out[row], want)
		}
	}
	for _, c := range cg.CPEs {
		want := PerfCounter{}
		if c.Col == 0 {
			want.FlopsScalar = 4
			if c.Row < MeshDim-1 {
				want.FlopsScalar++
				want.RegMsgs, want.RegBytes = 1, VecWidth*F64Bytes
			}
		}
		if c.Ctr != want {
			t.Errorf("CPE(%d,%d) counters %+v, want %+v", c.Row, c.Col, c.Ctr, want)
		}
	}
}

// TestColumnScanBatchRejectsBadShapes: the layout must be level-major
// over at least one node.
func TestColumnScanBatchRejectsBadShapes(t *testing.T) {
	for name, fn := range map[string]func(c *CPE){
		"no nodes": func(c *CPE) { ColumnScanBatch(c, ScanInclusive, nil, nil, nil, 0) },
		"ragged levels": func(c *CPE) {
			ColumnScanBatch(c, ScanInclusive, make([]float64, 3), make([]float64, 3), make([]float64, 2), 0)
		},
		"short output": func(c *CPE) {
			ColumnScanBatch(c, ScanInclusive, make([]float64, 4), make([]float64, 2), make([]float64, 2), 0)
		},
		"unknown kind": func(c *CPE) { ColumnScanBatch(c, ScanReverse+1, nil, nil, make([]float64, 1), 0) },
	} {
		msg := spawnFault(t, NewCoreGroup(0), func(c *CPE) {
			if c.ID == 0 {
				fn(c)
			}
		})
		if !strings.HasPrefix(msg, "sw: CPE(0,0) faulted: sw: ") {
			t.Errorf("%s: fault = %q", name, msg)
		}
	}
}
