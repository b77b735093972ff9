package sw

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// spawnFault runs a launch that must fault and returns the panic text.
// The launch runs on its own goroutine so a scheduler that hangs instead
// of faulting fails the test rather than the whole package run.
func spawnFault(t *testing.T, cg *CoreGroup, fn func(c *CPE)) string {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		cg.Spawn(fn)
	}()
	select {
	case r := <-got:
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("launch did not fault with a message: %v", r)
		}
		return msg
	case <-time.After(20 * time.Second):
		t.Fatal("launch hung instead of faulting")
		return ""
	}
}

// scanColumns runs one ColumnScan per mesh column (increments 1, base 0)
// and checks every CPE's prefix: the smallest kernel that needs every
// column's carry chain to work.
func scanColumns(t *testing.T, cg *CoreGroup) {
	t.Helper()
	const perCPE = 4
	var out [CPEsPerCG][perCPE]float64
	cg.Spawn(func(c *CPE) {
		local := c.LDM.MustAlloc("l", perCPE)
		for k := range local {
			local[k] = 1
		}
		ColumnScan(c, local, out[c.ID][:], 0)
	})
	for id := range out {
		for k, v := range out[id] {
			if want := float64(id/MeshDim*perCPE + k + 1); v != want {
				t.Errorf("CPE %d layer %d: scan = %v, want %v", id, k, v, want)
				return
			}
		}
	}
}

func TestSpawnFaultWhilePeersWait(t *testing.T) {
	cg := NewCoreGroup(0)
	overflowAt := func(id int, scan func(c *CPE, local []float64)) func(c *CPE) {
		return func(c *CPE) {
			local := c.LDM.MustAlloc("l", 4)
			if c.ID == id {
				c.LDM.MustAlloc("too big", LDMBytes)
			}
			scan(c, local)
		}
	}
	// The upward chain starts at the bottom row: when CPE(7,0) faults the
	// seven CPEs above it are suspended waiting down the column, and each
	// has to be unwound.
	msg := spawnFault(t, cg, overflowAt(cpeID(7, 0), func(c *CPE, local []float64) {
		chainScan1(c, ScanReverse, local, local, 0, 1)
	}))
	if !strings.HasPrefix(msg, "sw: CPE(7,0) faulted: sw: LDM overflow") {
		t.Fatalf("fault = %q", msg)
	}
	// The head of a downward chain faulting before it sends: its column
	// peers can never be served.
	msg = spawnFault(t, cg, overflowAt(cpeID(0, 0), func(c *CPE, local []float64) {
		chainScan1(c, ScanInclusive, local, local, 0, 0)
	}))
	if !strings.HasPrefix(msg, "sw: CPE(0,0) faulted: sw: LDM overflow") {
		t.Fatalf("fault = %q", msg)
	}
	// The same faults while the rest of the column waits in a collective.
	msg = spawnFault(t, cg, overflowAt(cpeID(7, 0), func(c *CPE, local []float64) {
		ColumnScanBatch(c, ScanReverse, local, local, []float64{0}, 1)
	}))
	if !strings.HasPrefix(msg, "sw: CPE(7,0) faulted: sw: LDM overflow") {
		t.Fatalf("fault = %q", msg)
	}
	msg = spawnFault(t, cg, overflowAt(cpeID(3, 0), func(c *CPE, local []float64) {
		ColumnScan(c, local, local, 0)
	}))
	if !strings.HasPrefix(msg, "sw: CPE(3,0) faulted: sw: LDM overflow") {
		t.Fatalf("fault = %q", msg)
	}
	// The crew that unwound is reusable and the core group launches again.
	scanColumns(t, cg)
}

func TestSpawnDeadlockPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(c *CPE)
		want string
	}{
		{"unmatched recv", func(c *CPE) {
			if c.ID == 0 {
				c.RegRecv(0, 1)
			}
		}, "sw: CPE(0,0) faulted: register communication deadlock: waiting on CPE(0,1)"},
		{"send nobody drains", func(c *CPE) {
			if c.ID == 63 {
				for i := 0; i <= regBufDepth; i++ {
					c.RegSend(0, 7, Splat(1))
				}
			}
		}, "sw: CPE(7,7) faulted: register communication deadlock: waiting on CPE(0,7)"},
		{"two-cycle", func(c *CPE) {
			switch c.ID {
			case 0:
				c.RegRecv(0, 1)
			case 1:
				c.RegRecv(0, 0)
			}
		}, "sw: CPE(0,0) faulted: register communication deadlock: waiting on CPE(0,1)"},
		{"four-cycle through a full link", func(c *CPE) {
			switch c.ID {
			case 0:
				c.RegRecv(0, 1)
			case 1:
				c.RegRecv(1, 1)
			case 9:
				for i := 0; i <= regBufDepth; i++ {
					c.RegSend(1, 0, Splat(1)) // CPE(1,0) never receives these
				}
			case 8:
				c.RegRecv(0, 0)
			}
		}, "sw: CPE(1,1) faulted: register communication deadlock: waiting on CPE(1,0), in a cycle"},
	} {
		cg := NewCoreGroup(0)
		if msg := spawnFault(t, cg, tc.fn); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: fault = %q, want it to contain %q", tc.name, msg, tc.want)
		}
		scanColumns(t, cg)
	}
}

func TestFabricEmptyAfterAbortedLaunch(t *testing.T) {
	cg := NewCoreGroup(0)
	spawnFault(t, cg, func(c *CPE) {
		switch {
		case c.Row == 0 && c.Col < MeshDim-1:
			c.RegSendScalar(0, c.Col+1, -1) // never received
		case c.ID == 20:
			panic("boom")
		}
	})
	for i := range cg.fabric.links {
		if n := cg.fabric.links[i].n; n != 0 {
			t.Fatalf("link %d holds %d registers after an aborted launch", i, n)
		}
	}
	// A receiver of the next launch sees that launch's register, not a
	// leftover.
	var got float64
	cg.Spawn(func(c *CPE) {
		switch c.ID {
		case 0:
			c.RegSendScalar(0, 1, 42)
		case 1:
			got = c.RegRecvScalar(0, 0)
		}
	})
	if got != 42 {
		t.Fatalf("received %v after an aborted launch, want 42", got)
	}
}

func TestSpawnZeroAlloc(t *testing.T) {
	cg := NewCoreGroup(0)
	for name, fn := range map[string]func(c *CPE){
		"empty": func(c *CPE) {},
		"scan": func(c *CPE) {
			local := c.LDM.MustAlloc("l", 16)
			ColumnScan(c, local, local, 0)
		},
		"batched scan": func(c *CPE) {
			local := c.LDM.MustAlloc("l", 3*16)
			base := c.LDM.MustAlloc("b", 16)
			ColumnScanBatch(c, ScanExclusive, local, local, base, 0)
			ColumnScanBatch(c, ScanReverse, local, local, base, 0.5)
		},
	} {
		cg.Spawn(fn) // warm: borrow or build the crew
		if got := testing.AllocsPerRun(20, func() { cg.Spawn(fn) }); got != 0 {
			t.Errorf("%s: %.0f allocations per warm Spawn, want 0", name, got)
		}
	}
}

// scheduleOf returns the sequence of CPE resumptions of one launch of a
// kernel that carries point-to-point chains down every column, scans
// every column collectively, and then transposes across every row.
func scheduleOf(cg *CoreGroup) []uint8 {
	var order []uint8
	cg.onResume = func(id int) { order = append(order, uint8(id)) }
	defer func() { cg.onResume = nil }()
	cg.Spawn(func(c *CPE) {
		local := c.LDM.MustAlloc("l", 8)
		for rep := 0; rep < 6; rep++ { // past the buffer depth: back-pressure switches too
			chainScan1(c, ScanInclusive, local, local, 1, 0)
		}
		for rep := 0; rep < 3; rep++ {
			ColumnScan(c, local, local, 1)
		}
		var blocks [MeshDim][]float64
		for j := range blocks {
			blocks[j] = c.LDM.MustAlloc("blk", BlockDim*BlockDim)
		}
		RowTranspose(c, blocks[:])
	})
	return order
}

func TestSpawnScheduleDeterministic(t *testing.T) {
	want := scheduleOf(NewCoreGroup(0))
	if len(want) <= CPEsPerCG {
		t.Fatalf("schedule has %d resumptions: the kernel never waited", len(want))
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		cg := NewCoreGroup(0)
		for run := 0; run < 2; run++ {
			if got := scheduleOf(cg); !slices.Equal(got, want) {
				t.Errorf("GOMAXPROCS %d run %d: schedule differs (%d resumptions, want %d)",
					procs, run, len(got), len(want))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestRegBackPressureDepth(t *testing.T) {
	cg := NewCoreGroup(0)
	var events []string
	cg.Spawn(func(c *CPE) {
		switch c.ID {
		case 0:
			for i := 1; i <= regBufDepth+1; i++ {
				c.RegSendScalar(0, 1, float64(i))
				events = append(events, fmt.Sprint("sent ", i))
			}
		case 1:
			for i := 1; i <= regBufDepth+1; i++ {
				if got := c.RegRecvScalar(0, 0); got != float64(i) {
					t.Errorf("register %d arrived as %v", i, got)
				}
				events = append(events, fmt.Sprint("received ", i))
			}
		}
	})
	// Four sends fill the link; the fifth completes only once the
	// receiver has taken the first.
	want := []string{"sent 1", "sent 2", "sent 3", "sent 4", "received 1"}
	if len(events) != 2*(regBufDepth+1) || !slices.Equal(events[:len(want)], want) {
		t.Fatalf("events = %v, want prefix %v", events, want)
	}
	if i := slices.Index(events, "sent 5"); i < slices.Index(events, "received 1") {
		t.Fatalf("fifth send completed before the first receive: %v", events)
	}

	const wantMsg = "not in same row or column"
	for name, fn := range map[string]func(c *CPE){
		"send": func(c *CPE) { c.RegSend(c.Row+1, c.Col+1, Splat(0)) },
		"recv": func(c *CPE) { c.RegRecv(c.Row+1, c.Col+1) },
		"self": func(c *CPE) { c.RegSend(c.Row, c.Col, Splat(0)) },
		"off":  func(c *CPE) { c.RegSend(c.Row, MeshDim, Splat(0)) },
	} {
		msg := spawnFault(t, cg, func(c *CPE) {
			if c.ID == 0 {
				fn(c)
			}
		})
		if !strings.Contains(msg, wantMsg) {
			t.Errorf("%s between unconnected CPEs: fault = %q, want %q", name, msg, wantMsg)
		}
	}
}

// spawnConcurrently launches a scan on n fresh core groups at once,
// reps times each, holding all n launches in flight together at least
// once so the pool must hold n crews afterwards.
func spawnConcurrently(t *testing.T, n, reps int) {
	t.Helper()
	var wg, inFlight sync.WaitGroup
	inFlight.Add(n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cg := NewCoreGroup(0)
			cg.Spawn(func(c *CPE) {
				if c.ID == 0 {
					inFlight.Done()
					inFlight.Wait() // every launch has borrowed its crew
				}
			})
			for r := 0; r < reps; r++ {
				scanColumns(t, cg)
			}
		}()
	}
	wg.Wait()
}

func TestRunnerPoolBounded(t *testing.T) {
	spawnConcurrently(t, 2, 1)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		scanColumns(t, NewCoreGroup(i))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 200 core groups launched in turn, %d after two concurrent launches",
			after, before)
	}
}

func TestSpawnConcurrentCoreGroups(t *testing.T) {
	spawnConcurrently(t, 8, 50)
}
