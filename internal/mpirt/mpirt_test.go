package mpirt

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("recv got %v", buf)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			data := []float64{42}
			c.Send(1, 0, data)
			data[0] = -1 // must not affect the message in flight
			c.Barrier()
		} else {
			c.Barrier()
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				t.Errorf("message corrupted by sender reuse: %v", buf[0])
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{10})
			c.Send(1, 2, []float64{20})
		} else {
			a := make([]float64, 1)
			b := make([]float64, 1)
			c.Recv(0, 2, b) // receive the later tag first
			c.Recv(0, 1, a)
			if a[0] != 10 || b[0] != 20 {
				t.Errorf("tag matching broken: %v %v", a, b)
			}
		}
	})
}

func TestPerPairOrderPreservedWithinTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 5, buf)
				if buf[0] != float64(i) {
					t.Errorf("message %d arrived as %v", i, buf[0])
					return
				}
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		buf := make([]float64, 4)
		var req Request
		if c.Rank() == 0 {
			c.IsendInto(&req, 1, 3, []float64{1, 2, 3, 4})
			req.Wait()
		} else {
			c.IrecvInto(&req, 0, 3, buf)
			// "Compute" before waiting: buf must not be filled yet by
			// contract (fill happens at Wait).
			req.Wait()
			for i, v := range buf {
				if v != float64(i+1) {
					t.Errorf("irecv buf = %v", buf)
					return
				}
			}
		}
	})
}

// Double Wait is a documented no-op: the second call returns the cached
// outcome of the first instead of panicking or re-receiving.
func TestRequestDoubleWaitIsNoOp(t *testing.T) {
	w := NewWorld(2)
	if err := w.Run(func(c *Comm) {
		var r Request
		if c.Rank() == 0 {
			c.IsendInto(&r, 1, 0, []float64{1})
			r.Wait()
			r.Wait()
		} else {
			buf := make([]float64, 1)
			c.IrecvInto(&r, 0, 0, buf)
			if err := r.WaitErr(); err != nil {
				t.Errorf("first WaitErr: %v", err)
			}
			buf[0] = -7 // must not be re-filled by the second Wait
			if err := r.WaitErr(); err != nil {
				t.Errorf("second WaitErr: %v", err)
			}
			r.Wait()
			if buf[0] != -7 {
				t.Errorf("second Wait re-received into the buffer: %v", buf[0])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvSizeMismatchReturnsError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2})
		} else {
			c.Recv(0, 0, make([]float64, 3))
		}
	})
	if !errors.Is(err, ErrSize) {
		t.Fatalf("size mismatch gave %v, want ErrSize", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("faulty rank not identified: %v", err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var before, after [n]bool
	w.Run(func(c *Comm) {
		before[c.Rank()] = true
		c.Barrier()
		// After the barrier every rank must see every 'before' flag.
		for r := 0; r < n; r++ {
			if !before[r] {
				t.Errorf("rank %d passed barrier before rank %d entered", c.Rank(), r)
			}
		}
		after[c.Rank()] = true
	})
	for r := 0; r < n; r++ {
		if !after[r] {
			t.Fatalf("rank %d never finished", r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for i := 0; i < 25; i++ {
			c.Barrier()
		}
	})
}

func TestStatsCounters(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
		} else {
			c.Recv(0, 0, make([]float64, 10))
		}
	})
	if s := w.Stats(0); s.MsgsSent != 1 || s.BytesSent != 80 {
		t.Errorf("rank 0 stats = %+v", s)
	}
	if s := w.Stats(1); s.MsgsRecvd != 1 || s.BytesRecvd != 80 {
		t.Errorf("rank 1 stats = %+v", s)
	}
	if w.TotalBytes() != 80 {
		t.Errorf("total bytes = %d", w.TotalBytes())
	}
}

func TestRunReportsPanicWithRank(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank boom")
		}
	})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panic gave %v, want ErrPanic", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("faulty rank not identified: %v", err)
	}
	if !strings.Contains(err.Error(), "rank boom") {
		t.Errorf("panic value lost: %v", err)
	}
}

func testReduceSizes(t *testing.T, sizes []int) {
	t.Helper()
	for _, n := range sizes {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			in := []float64{float64(c.Rank() + 1), float64(c.Rank())}
			out := make([]float64, 2)
			c.Allreduce(OpSum, in, out)
			wantA := float64(n*(n+1)) / 2
			wantB := float64(n*(n-1)) / 2
			if math.Abs(out[0]-wantA) > 1e-12 || math.Abs(out[1]-wantB) > 1e-12 {
				t.Errorf("n=%d rank %d: allreduce = %v, want [%v %v]", n, c.Rank(), out, wantA, wantB)
			}
		})
	}
}

func TestAllreduceSumAllSizes(t *testing.T) {
	// Power-of-two and awkward sizes both must work.
	testReduceSizes(t, []int{1, 2, 3, 4, 5, 7, 8, 13, 16})
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		x := float64(c.Rank())
		if got := c.AllreduceScalar(OpMax, x); got != n-1 {
			t.Errorf("max = %v", got)
		}
		if got := c.AllreduceScalar(opMin, x); got != 0 {
			t.Errorf("min = %v", got)
		}
	})
}

func TestReduceNonZeroRoot(t *testing.T) {
	const n = 5
	const root = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		in := []float64{1}
		out := []float64{0}
		c.Reduce(root, OpSum, in, out)
		if c.Rank() == root && out[0] != n {
			t.Errorf("reduce at root = %v, want %v", out[0], n)
		}
		if c.Rank() != root && out[0] != 0 {
			t.Errorf("non-root rank %d got result %v", c.Rank(), out[0])
		}
	})
}

func TestBcastFromEveryRoot(t *testing.T) {
	const n = 7
	for root := 0; root < n; root++ {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			buf := make([]float64, 3)
			if c.Rank() == root {
				buf[0], buf[1], buf[2] = 9, 8, 7
			}
			c.Bcast(root, buf)
			if buf[0] != 9 || buf[1] != 8 || buf[2] != 7 {
				t.Errorf("root=%d rank %d: bcast got %v", root, c.Rank(), buf)
			}
		})
	}
}

func TestGather(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	out := make([]float64, 2*n)
	w.Run(func(c *Comm) {
		in := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
		if c.Rank() == 0 {
			c.Gather(0, in, out)
		} else {
			c.Gather(0, in, nil)
		}
	})
	for r := 0; r < n; r++ {
		if out[2*r] != float64(r) || out[2*r+1] != float64(r*10) {
			t.Fatalf("gather out = %v", out)
		}
	}
}

func TestWaitAll(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		n := c.Size()
		bufs := make([][]float64, n)
		reqs := make([]Request, n) // the own rank's slot stays complete
		for r := 0; r < n; r++ {
			if r == c.Rank() {
				continue
			}
			bufs[r] = make([]float64, 1)
			c.IrecvInto(&reqs[r], r, 9, bufs[r])
		}
		for r := 0; r < n; r++ {
			if r != c.Rank() {
				var sr Request
				c.IsendInto(&sr, r, 9, []float64{float64(c.Rank())})
			}
		}
		for r := range reqs {
			reqs[r].Wait()
		}
		for r := 0; r < n; r++ {
			if r != c.Rank() && bufs[r][0] != float64(r) {
				t.Errorf("rank %d: from %d got %v", c.Rank(), r, bufs[r][0])
			}
		}
	})
}

func TestNewWorldPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ranks accepted")
		}
	}()
	NewWorld(0)
}

// Stress: many ranks exchanging many tagged messages in both directions
// concurrently with collectives interleaved — the runtime must neither
// deadlock nor misroute.
func TestStressManyRanksManyMessages(t *testing.T) {
	const (
		n    = 12
		msgs = 40
	)
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		me := c.Rank()
		next := (me + 1) % n
		prev := (me - 1 + n) % n
		reqs := make([]Request, msgs)
		bufs := make([][]float64, msgs)
		for i := 0; i < msgs; i++ {
			bufs[i] = make([]float64, 3)
			c.IrecvInto(&reqs[i], prev, i, bufs[i])
		}
		for i := 0; i < msgs; i++ {
			var sr Request
			c.IsendInto(&sr, next, i, []float64{float64(me), float64(i), float64(me * i)})
			if i%10 == 0 {
				c.Barrier()
			}
		}
		for i := range reqs {
			reqs[i].Wait()
		}
		for i := 0; i < msgs; i++ {
			if bufs[i][0] != float64(prev) || bufs[i][1] != float64(i) || bufs[i][2] != float64(prev*i) {
				t.Errorf("rank %d msg %d corrupted: %v", me, i, bufs[i])
				return
			}
		}
		total := c.AllreduceScalar(OpSum, 1)
		if total != n {
			t.Errorf("rank %d: allreduce after stress = %v", me, total)
		}
	})
}

// RecvErr is Recv with an error return (world-default deadline).
func (c *Comm) RecvErr(src, tag int, buf []float64) error {
	return c.RecvTimeout(src, tag, buf, c.world.recvTimeout)
}
