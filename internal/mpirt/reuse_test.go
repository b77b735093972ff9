package mpirt

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorldReuseKeepsCommsAndResetsStats: a world that completed a Run
// hands every rank the same Comm on the next one (so its collective
// scratch stays warm), its payload buffers come back from the mailbox
// freelists, and ResetStats makes the next run's counters its own.
func TestWorldReuseKeepsCommsAndResetsStats(t *testing.T) {
	const nranks = 3
	w := NewWorld(nranks)
	var first [nranks]*Comm
	exchange := func(c *Comm) {
		next, prev := (c.Rank()+1)%nranks, (c.Rank()+nranks-1)%nranks
		c.Send(next, 5, []float64{float64(c.Rank()), 1, 2, 3})
		buf := make([]float64, 4)
		c.Recv(prev, 5, buf)
		if buf[0] != float64(prev) {
			t.Errorf("rank %d got %v from rank %d", c.Rank(), buf[0], prev)
		}
		c.AllreduceScalar(OpSum, 1)
	}
	if err := w.Run(func(c *Comm) { first[c.Rank()] = c; exchange(c) }); err != nil {
		t.Fatal(err)
	}
	one := w.Stats(0)
	w.ResetStats()
	for r := 0; r < nranks; r++ {
		if s := w.Stats(r); s != (Stats{}) {
			t.Errorf("rank %d after ResetStats: %+v, want zero", r, s)
		}
	}
	err := w.Run(func(c *Comm) {
		if c != first[c.Rank()] {
			t.Errorf("rank %d got a new Comm on the second run", c.Rank())
		}
		exchange(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	two := w.Stats(0)
	one.CollNs, two.CollNs = 0, 0
	if two != one {
		t.Errorf("second run's stats %+v, first run's %+v: want equal", two, one)
	}
	// Every payload of the first run was recycled; the second reused them.
	for r := 0; r < nranks; r++ {
		b := w.boxes[r]
		if len(b.free) == 0 {
			t.Errorf("rank %d mailbox freelist empty after two runs", r)
		}
	}
}

// TestStaleOriginalFromEarlierRunDiscarded: a DelayMsg original that
// run 1 recovered from the retransmit log arrives while run 2 is under
// way on the same world. Sequence numbers continue across runs, so the
// mailbox discards it as stale, and run 2 receives its own data.
func TestStaleOriginalFromEarlierRunDiscarded(t *testing.T) {
	const delay = 80 * time.Millisecond
	p := NewFaultPlan(2).Add(Fault{Rank: 0, AfterOp: 1, Kind: DelayMsg, Delay: delay})
	w := NewWorld(2)
	w.SetFaults(p)
	w.SetRecvTimeout(10 * time.Millisecond)
	w.SetRetry(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond})
	var sent time.Time
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			sent = time.Now()
			c.Send(1, 7, []float64{1, 1}) // delayed past the deadline
			return
		}
		buf := make([]float64, 2)
		if err := c.RecvErr(0, 7, buf); err != nil || buf[0] != 1 {
			t.Errorf("run 1: got %v, err %v; want 1 via retransmission", buf, err)
		}
	})
	if err != nil {
		t.Fatalf("run 1 aborted: %v", err)
	}
	if got := w.Stats(1).RetxRecovered; got != 1 {
		t.Fatalf("run 1 recovered %d messages from the log, want 1", got)
	}
	w.ResetStats()
	err = w.Run(func(c *Comm) {
		// The delayed original lands during this run, before either
		// rank touches the stream.
		time.Sleep(time.Until(sent.Add(2 * delay)))
		if c.Rank() == 0 {
			c.Barrier()
			c.Send(1, 7, []float64{2, 2})
			return
		}
		b := w.boxes[1]
		b.mu.Lock()
		queued := len(b.pending)
		b.mu.Unlock()
		if queued != 1 {
			t.Errorf("run 2: %d messages queued before the send, want the 1 stale original", queued)
		}
		c.Barrier()
		buf := make([]float64, 2)
		if err := c.RecvErr(0, 7, buf); err != nil || buf[0] != 2 || buf[1] != 2 {
			t.Errorf("run 2: got %v, err %v; want [2 2] (stale original discarded)", buf, err)
		}
	})
	if err != nil {
		t.Fatalf("run 2 aborted: %v", err)
	}
	if s := w.Stats(1); s.MsgsRecvd != 1 || s.RetxAttempts != 0 {
		t.Errorf("run 2 stats on rank 1: %+v, want one receive and no retransmission", s)
	}
	if n := len(w.boxes[1].pending); n != 0 {
		t.Errorf("%d messages left queued after run 2, want 0", n)
	}
}

// TestGetBufTakesSmallestFit: a sender takes the smallest recycled
// buffer that holds its payload, so a short message never takes the
// buffer a long one needs, and the long one does not allocate.
func TestGetBufTakesSmallestFit(t *testing.T) {
	b := newMailbox()
	for _, c := range []int{4, 16, 64, 8} {
		b.putBuf(make([]float64, c))
	}
	for _, tc := range []struct{ n, wantCap int }{{8, 8}, {5, 16}, {3, 4}, {64, 64}} {
		if got := cap(b.getBuf(tc.n)); got != tc.wantCap {
			t.Errorf("getBuf(%d) took a buffer of capacity %d, want %d", tc.n, got, tc.wantCap)
		}
	}
	if len(b.free) != 0 {
		t.Errorf("%d buffers left on the freelist, want 0", len(b.free))
	}
	if got := cap(b.getBuf(2)); got != 2 {
		t.Errorf("getBuf(2) on an empty freelist returned capacity %d, want a new buffer of 2", got)
	}
}

// TestWarmRunAllocatesNothing: World.Run starts its ranks on parked
// pool goroutines, handing each its world and rank without a closure,
// so once the pool holds enough runners a Run makes no heap allocation.
func TestWarmRunAllocatesNothing(t *testing.T) {
	const nranks = 4
	w := NewWorld(nranks)
	var ran [nranks]int
	body := func(c *Comm) { ran[c.Rank()]++ }
	run := func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pool
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("warm %d-rank Run: %.1f allocs, want 0", nranks, got)
	}
	for r, n := range ran {
		if n != 22 {
			t.Errorf("rank %d ran %d times, want 22", r, n)
		}
	}
}

// TestRunEndsOnPanicAndGoexit: a rank that panics fails the run naming
// it, and a rank that calls runtime.Goexit (a test's t.FailNow) ends
// with the run as before, its pooled goroutine gone; after either, the
// pool still runs every rank of the next world without allocating.
func TestRunEndsOnPanicAndGoexit(t *testing.T) {
	const nranks = 4
	err := NewWorld(nranks).Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking rank 2: Run returned %v", err)
	}

	var finished atomic.Int32
	err = NewWorld(nranks).Run(func(c *Comm) {
		if c.Rank() == 1 {
			runtime.Goexit()
		}
		finished.Add(1)
	})
	if err != nil || finished.Load() != nranks-1 {
		t.Fatalf("Goexit on rank 1: Run returned %v with %d ranks finished, want nil and %d",
			err, finished.Load(), nranks-1)
	}

	w := NewWorld(nranks)
	var ran [nranks]int
	body := func(c *Comm) { ran[c.Rank()]++ }
	run := func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	run() // replaces the runner that exited
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("warm Run after a panic and a Goexit: %.1f allocs, want 0", got)
	}
	for r, n := range ran {
		if n != 12 {
			t.Errorf("rank %d ran %d times, want 12", r, n)
		}
	}
}
