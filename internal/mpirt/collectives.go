package mpirt

import (
	"sync"
	"time"
)

// barrier is a reusable counting barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every rank has entered the barrier, or until the
// world is poisoned — a barrier must never outlive its world, or a
// single dead rank would strand every peer in it.
func (b *barrier) wait(w *World) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.aborted.Load() {
		return ErrWorldAborted
	}
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return nil
	}
	for phase == b.phase {
		b.cond.Wait()
		if w.aborted.Load() && phase == b.phase {
			return ErrWorldAborted
		}
	}
	return nil
}

// Barrier blocks until every rank has entered it. In a poisoned world it
// unwinds the rank with ErrWorldAborted instead of waiting forever.
func (c *Comm) Barrier() {
	sp := c.span("mpirt.barrier")
	defer c.collEnd(time.Now())
	c.faultPoint(false)
	if err := c.world.barrier.wait(c.world); err != nil {
		fail(err)
	}
	sp.End()
}

// ReduceOp combines two values during reductions.
type ReduceOp func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	}
)

// collective tags live in a reserved negative space so they can never
// collide with user point-to-point tags. (-1 is the Reduce oracle's, in
// collectives_test.go.)
const (
	tagBcast     = -2
	tagGather    = -3
	tagAllreduce = -5
)

// collEnd accumulates one finished collective into this rank's stats —
// the per-phase timing signal the scaling campaign (internal/scale)
// reads back out through DumpStats as mpirt.coll.*.
func (c *Comm) collEnd(t0 time.Time) {
	st := &c.world.stats[c.rank]
	st.CollOps++
	st.CollNs += time.Since(t0).Nanoseconds()
}

// Bcast distributes root's buf to every rank (binomial tree).
func (c *Comm) Bcast(root int, buf []float64) {
	sp := c.span("mpirt.bcast")
	defer sp.End()
	defer c.collEnd(time.Now())
	me := (c.rank - root + c.world.n) % c.world.n
	n := c.world.n
	// Find the highest power-of-two step at which this rank receives.
	mask := 1
	for mask < n {
		mask *= 2
	}
	if me != 0 {
		// Receive from the parent: clear the lowest set bit of me.
		parent := me & (me - 1)
		c.Recv((parent+root)%n, tagBcast, buf)
	}
	// Forward to children: set bits above the lowest set bit of me.
	low := me & -me
	if me == 0 {
		low = mask
	}
	for step := low / 2; step >= 1; step /= 2 {
		child := me | step
		if child != me && child < n {
			c.Send((child+root)%n, tagBcast, buf)
		}
	}
}

// Allreduce combines in[] across all ranks into out[] on every rank,
// by recursive doubling: log2(n) butterfly stages in which every rank
// exchanges its accumulated block value with a partner, instead of the
// old Reduce-to-0-then-Bcast (which traverses the tree twice and
// serializes on rank 0). The floating-point association is EXACTLY the
// binomial-tree fold of the old path — at every stage the combined
// value is op(lower-half fold, upper-half fold), which is the grouping
// the fan-in tree computes — so the result is bit-identical to
// Reduce(0)+Bcast(0) for every op, vector length, and rank count,
// including non-powers of two.
//
// Non-power-of-2 rank counts keep one invariant: whenever the upper
// half-block of a stage is non-empty, the lower half-block is full
// (its top rank is below the upper block's base, which is below n).
// Upper-half ranks therefore always have a live partner; lower-half
// ranks whose partner would be >= n instead receive the upper block's
// fold from a designated substitute sender inside the upper block.
// Every rank of every (possibly partial) block holds that block's fold
// after each stage, by induction.
//
// The receive scratch and the accumulator live on the Comm and the
// caller's out[], so a warm steady-state call performs no heap
// allocation (bounded in TestAllreduceZeroAlloc).
func (c *Comm) Allreduce(op ReduceOp, in, out []float64) {
	sp := c.span("mpirt.allreduce")
	defer sp.End()
	defer c.collEnd(time.Now())
	n := c.world.n
	copy(out, in)
	if n == 1 {
		return
	}
	if cap(c.arScratch) < len(out) {
		c.arScratch = make([]float64, len(out))
	}
	scr := c.arScratch[:len(out)]
	me := c.rank
	for s := 1; s < n; s *= 2 {
		base := me &^ (2*s - 1) // this stage's 2s-aligned block base
		if me&s != 0 {
			// Upper half-block: partner always exists. Ship our fold,
			// take the lower fold, combine as op(lower, upper).
			partner := me - s
			c.Send(partner, tagAllreduce, out)
			// Substitute duty: lower-half ranks >= n-s have no partner;
			// cover those congruent to our block index.
			m := c.world.n - base - s // upper block population
			for i := me - base - s; i < s-m; i += m {
				c.Send(base+m+i, tagAllreduce, out)
			}
			c.Recv(partner, tagAllreduce, scr)
			for k := range out {
				out[k] = op(scr[k], out[k])
			}
			continue
		}
		// Lower half-block.
		switch partner := me + s; {
		case partner < n:
			c.Send(partner, tagAllreduce, out)
			c.Recv(partner, tagAllreduce, scr)
		case base+s < n:
			// Partner missing but the upper block exists: its fold
			// arrives from the substitute sender chosen above.
			m := n - base - s
			c.Recv(base+s+(me-base-m)%m, tagAllreduce, scr)
		default:
			continue // upper block empty: our fold already covers it
		}
		for k := range out {
			out[k] = op(out[k], scr[k])
		}
	}
}

// AllreduceScalar is Allreduce for a single value — the hot-path form
// the blowup watchdog calls every checked step. The length-1 buffers
// are pooled on the Comm, so a warm call allocates nothing.
func (c *Comm) AllreduceScalar(op ReduceOp, x float64) float64 {
	if c.arIn == nil {
		c.arIn = make([]float64, 1)
		c.arOut = make([]float64, 1)
	}
	c.arIn[0] = x
	c.Allreduce(op, c.arIn, c.arOut)
	return c.arOut[0]
}

// Gather collects equal-length contributions from every rank into out on
// root, ordered by rank. out must have len(in)*Size() elements on root
// and may be nil elsewhere.
func (c *Comm) Gather(root int, in, out []float64) {
	sp := c.span("mpirt.gather")
	defer sp.End()
	defer c.collEnd(time.Now())
	if c.rank == root {
		copy(out[root*len(in):(root+1)*len(in)], in)
		for r := 0; r < c.world.n; r++ {
			if r == root {
				continue
			}
			c.Recv(r, tagGather, out[r*len(in):(r+1)*len(in)])
		}
		return
	}
	c.Send(root, tagGather, in)
}
