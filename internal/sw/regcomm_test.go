package sw

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegCommRowNeighbors(t *testing.T) {
	cg := NewCoreGroup(0)
	got := make([]float64, CPEsPerCG)
	cg.Spawn(func(c *CPE) {
		// Each CPE sends its ID to its right neighbour in the row and
		// receives from its left neighbour (ring-free open chain).
		if c.Col < MeshDim-1 {
			c.RegSendScalar(c.Row, c.Col+1, float64(c.ID))
		}
		if c.Col > 0 {
			got[c.ID] = c.RegRecvScalar(c.Row, c.Col-1)
		} else {
			got[c.ID] = -1
		}
	})
	for id, v := range got {
		col := id % MeshDim
		if col == 0 {
			if v != -1 {
				t.Fatalf("CPE %d expected no message", id)
			}
			continue
		}
		if v != float64(id-1) {
			t.Fatalf("CPE %d got %v, want %d", id, v, id-1)
		}
	}
}

func TestRegCommColumn(t *testing.T) {
	cg := NewCoreGroup(0)
	var sum [MeshDim]float64
	cg.Spawn(func(c *CPE) {
		// Column reduction onto row 0 via a chain up the column.
		v := float64(c.ID)
		if c.Row < MeshDim-1 {
			v += c.RegRecvScalar(c.Row+1, c.Col)
		}
		if c.Row > 0 {
			c.RegSendScalar(c.Row-1, c.Col, v)
		} else {
			sum[c.Col] = v
		}
	})
	for col := 0; col < MeshDim; col++ {
		want := 0.0
		for row := 0; row < MeshDim; row++ {
			want += float64(row*MeshDim + col)
		}
		if sum[col] != want {
			t.Fatalf("col %d sum = %v, want %v", col, sum[col], want)
		}
	}
}

func TestRegCommDiagonalForbidden(t *testing.T) {
	cg := NewCoreGroup(0)
	defer func() {
		if recover() == nil {
			t.Fatal("diagonal register send did not panic")
		}
	}()
	cg.Spawn(func(c *CPE) {
		if c.Row == 0 && c.Col == 0 {
			c.RegSend(1, 1, Splat(0)) // (0,0) -> (1,1): different row AND column
		}
	})
}

func TestRegCommCountsMessages(t *testing.T) {
	cg := NewCoreGroup(0)
	cg.Spawn(func(c *CPE) {
		if c.Row == 0 && c.Col == 0 {
			c.RegSend(0, 1, Splat(1))
		}
		if c.Row == 0 && c.Col == 1 {
			c.RegRecv(0, 0)
		}
	})
	sum, _ := cg.Counters()
	if sum.RegMsgs != 1 || sum.RegBytes != 32 {
		t.Fatalf("regcomm counters = %d msgs / %d bytes", sum.RegMsgs, sum.RegBytes)
	}
}

func TestColumnScanMatchesSerial(t *testing.T) {
	cg := NewCoreGroup(0)
	const perCPE = 16
	const n = MeshDim * perCPE // 128 layers, the paper's vertical size
	rng := rand.New(rand.NewSource(7))
	// One independent column of data per mesh column.
	input := make([][]float64, MeshDim)
	for j := range input {
		input[j] = make([]float64, n)
		for k := range input[j] {
			input[j][k] = rng.Float64()
		}
	}
	base := 3.25
	results := make([][]float64, MeshDim)
	for j := range results {
		results[j] = make([]float64, n)
	}
	cg.Spawn(func(c *CPE) {
		local := make([]float64, perCPE)
		copy(local, input[c.Col][c.Row*perCPE:(c.Row+1)*perCPE])
		out := make([]float64, perCPE)
		ColumnScan(c, local, out, base)
		copy(results[c.Col][c.Row*perCPE:(c.Row+1)*perCPE], out)
	})
	for j := 0; j < MeshDim; j++ {
		run := base
		for k := 0; k < n; k++ {
			run += input[j][k]
			if math.Abs(results[j][k]-run) > 1e-12*math.Abs(run) {
				t.Fatalf("col %d layer %d: scan = %v, serial = %v", j, k, results[j][k], run)
			}
		}
	}
}

func TestColumnScanExclusive(t *testing.T) {
	cg := NewCoreGroup(0)
	const perCPE = 4
	const n = MeshDim * perCPE
	input := make([]float64, n)
	for k := range input {
		input[k] = float64(k + 1)
	}
	results := make([]float64, n)
	cg.Spawn(func(c *CPE) {
		if c.Col != 0 {
			return
		}
		local := make([]float64, perCPE)
		copy(local, input[c.Row*perCPE:(c.Row+1)*perCPE])
		out := make([]float64, perCPE)
		ColumnScanExclusive(c, local, out, 10)
		copy(results[c.Row*perCPE:(c.Row+1)*perCPE], out)
	})
	run := 10.0
	for k := 0; k < n; k++ {
		if results[k] != run {
			t.Fatalf("layer %d: exclusive scan = %v, want %v", k, results[k], run)
		}
		run += input[k]
	}
}

func TestColumnScanReverse(t *testing.T) {
	cg := NewCoreGroup(0)
	const perCPE = 4
	const n = MeshDim * perCPE
	input := make([]float64, n)
	for k := range input {
		input[k] = float64(k + 1)
	}
	results := make([]float64, n)
	cg.Spawn(func(c *CPE) {
		if c.Col != 0 {
			return
		}
		local := make([]float64, perCPE)
		copy(local, input[c.Row*perCPE:(c.Row+1)*perCPE])
		out := make([]float64, perCPE)
		ColumnScanReverse(c, local, out, 100, 0.5)
		copy(results[c.Row*perCPE:(c.Row+1)*perCPE], out)
	})
	// Serial reference: out[k] = 100 + sum_{l>k} in[l] + in[k]/2.
	for k := 0; k < n; k++ {
		want := 100.0
		for l := k + 1; l < n; l++ {
			want += input[l]
		}
		want += input[k] / 2
		if math.Abs(results[k]-want) > 1e-12*want {
			t.Fatalf("level %d: reverse scan = %v, want %v", k, results[k], want)
		}
	}
}

func TestExchangeBlockLargeNoDeadlock(t *testing.T) {
	// Blocks far larger than the receive buffer must exchange cleanly
	// between all pairs of one mesh column simultaneously.
	cg := NewCoreGroup(0)
	const n = 64 // 16 registers per pair, buffer holds 4
	results := make([][]float64, CPEsPerCG)
	cg.Spawn(func(c *CPE) {
		if c.Col != 2 {
			return
		}
		send := make([]float64, n)
		for i := range send {
			send[i] = float64(c.Row*1000 + i)
		}
		recv := make([]float64, n)
		// Pair rows via XOR phases, like the transposition schedule.
		for k := 1; k < MeshDim; k++ {
			p := c.Row ^ k
			c.ExchangeBlock(p, c.Col, send, recv)
			for i := range recv {
				if recv[i] != float64(p*1000+i) {
					t.Errorf("row %d phase %d: recv[%d] = %v", c.Row, k, i, recv[i])
					break
				}
			}
		}
		results[c.ID] = recv
	})
}

func TestExchangeBlockRejectsBadLengths(t *testing.T) {
	cg := NewCoreGroup(0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad lengths accepted")
		}
	}()
	cg.Spawn(func(c *CPE) {
		if c.Row == 0 && c.Col == 0 {
			c.ExchangeBlock(1, 0, make([]float64, 6), make([]float64, 6))
		}
	})
}
