package mpirt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// opMin is the min operator, for the operator sweeps.
var opMin ReduceOp = func(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

// tagReduce is Reduce's collective tag, beside the runtime's own in
// collectives.go.
const tagReduce = -1

// Reduce combines in[] element-wise across ranks with op; the result
// lands in out[] on root only. Implemented as a fan-in tree on rank ids: the
// reduction order the Allreduce butterfly must reproduce.
func (c *Comm) Reduce(root int, op ReduceOp, in, out []float64) {
	sp := c.span("mpirt.reduce")
	defer sp.End()
	defer c.collEnd(time.Now())
	// Rotate ranks so the tree roots at 'root'.
	me := (c.rank - root + c.world.n) % c.world.n
	n := c.world.n
	acc := append([]float64(nil), in...)
	// Binomial tree fan-in.
	for step := 1; step < n; step *= 2 {
		if me&step != 0 {
			dst := ((me - step) + root) % n
			c.Send(dst, tagReduce, acc)
			break
		}
		src := me + step
		if src < n {
			buf := make([]float64, len(acc))
			c.Recv((src+root)%n, tagReduce, buf)
			for i := range acc {
				acc[i] = op(acc[i], buf[i])
			}
		}
	}
	if c.rank == root {
		copy(out, acc)
	}
}

// allreduceReduceBcast is the pre-recursive-doubling Allreduce, the
// reference of the collective differential tests: the butterfly must
// reproduce its floating-point result bit for bit.
func (c *Comm) allreduceReduceBcast(op ReduceOp, in, out []float64) {
	tmp := make([]float64, len(in))
	c.Reduce(0, op, in, tmp)
	if c.rank == 0 {
		copy(out, tmp)
	}
	c.Bcast(0, out)
}

// allreduceOps names the standard operators for table-driven sweeps.
var allreduceOps = []struct {
	name string
	op   ReduceOp
}{
	{"sum", OpSum},
	{"max", OpMax},
	{"min", opMin},
}

// TestAllreduceDifferential is the collective differential: the
// recursive-doubling Allreduce must reproduce the retained
// Reduce(0)+Bcast(0) reference BIT FOR BIT — same op, same inputs, same
// float64 bit patterns out on every rank — across non-trivial vector
// lengths and rank counts including many non-powers of two (where the
// substitute-sender scheme carries partial blocks). Sum is the only op
// where association actually moves bits, but max/min ride along to cover
// the message pattern under every operator.
func TestAllreduceDifferential(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 24, 25, 31, 32, 33}
	for _, n := range sizes {
		for _, tc := range allreduceOps {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				const vlen = 17
				rng := rand.New(rand.NewSource(int64(1000*n) + int64(len(tc.name))))
				ins := make([][]float64, n)
				for r := range ins {
					ins[r] = make([]float64, vlen)
					for k := range ins[r] {
						// Wide dynamic range so sum association genuinely
						// perturbs low bits if the grouping differs.
						ins[r][k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
					}
				}
				got := make([][]float64, n)
				want := make([][]float64, n)
				w := NewWorld(n)
				err := runBounded(t, w, 30*time.Second, func(c *Comm) {
					g := make([]float64, vlen)
					wv := make([]float64, vlen)
					c.Allreduce(tc.op, ins[c.Rank()], g)
					c.allreduceReduceBcast(tc.op, ins[c.Rank()], wv)
					got[c.Rank()] = g
					want[c.Rank()] = wv
				})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < n; r++ {
					for k := 0; k < vlen; k++ {
						if math.Float64bits(got[r][k]) != math.Float64bits(want[r][k]) {
							t.Fatalf("rank %d elem %d: recursive doubling %x (%v) != reference %x (%v)",
								r, k, math.Float64bits(got[r][k]), got[r][k],
								math.Float64bits(want[r][k]), want[r][k])
						}
					}
				}
				// And every rank agrees with every other rank.
				for r := 1; r < n; r++ {
					for k := 0; k < vlen; k++ {
						if math.Float64bits(got[r][k]) != math.Float64bits(got[0][k]) {
							t.Fatalf("rank %d disagrees with rank 0 at elem %d", r, k)
						}
					}
				}
			})
		}
	}
}

// TestAllreduceDifferentialUnderFaults drives the butterfly through
// recoverable faults (drops, corruption, delays) with the bounded-
// retransmission failure detector on, and demands the result still be
// bit-identical to a fault-free reference run. Retransmission must not
// change what the collective computes, only when messages land.
func TestAllreduceDifferentialUnderFaults(t *testing.T) {
	const n, vlen, rounds = 7, 9, 5
	rng := rand.New(rand.NewSource(99))
	ins := make([][]float64, n)
	for r := range ins {
		ins[r] = make([]float64, vlen)
		for k := range ins[r] {
			ins[r][k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	// Fault-free reference via the retained Reduce+Bcast path.
	want := make([][][]float64, rounds)
	wRef := NewWorld(n)
	if err := runBounded(t, wRef, 30*time.Second, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			out := make([]float64, vlen)
			c.allreduceReduceBcast(allreduceOps[i%len(allreduceOps)].op, ins[c.Rank()], out)
			if c.Rank() == 0 {
				want[i] = append(want[i], out)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(n).
		Add(Fault{Kind: DropMsg, Rank: 1, AfterOp: 3}).
		Add(Fault{Kind: CorruptMsg, Rank: 4, AfterOp: 5}).
		Add(Fault{Kind: DropMsg, Rank: 6, AfterOp: 8}).
		Add(Fault{Kind: DelayMsg, Rank: 2, AfterOp: 4, Delay: 2 * time.Millisecond}).
		Add(Fault{Kind: CorruptMsg, Rank: 0, AfterOp: 10})
	w := NewWorld(n)
	w.SetFaults(plan)
	w.SetRetry(DefaultRetryPolicy())
	w.SetRecvTimeout(2 * time.Second)
	got := make([][][]float64, n)
	if err := runBounded(t, w, 60*time.Second, func(c *Comm) {
		outs := make([][]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			out := make([]float64, vlen)
			c.Allreduce(allreduceOps[i%len(allreduceOps)].op, ins[c.Rank()], out)
			outs = append(outs, out)
		}
		got[c.Rank()] = outs
	}); err != nil {
		t.Fatal(err)
	}
	var retx int64
	for r := 0; r < n; r++ {
		retx += w.Stats(r).RetxAttempts
	}
	if retx == 0 {
		t.Fatalf("fault plan injected drops/corruption but no retransmission was attempted")
	}
	for r := 0; r < n; r++ {
		for i := 0; i < rounds; i++ {
			for k := 0; k < vlen; k++ {
				if math.Float64bits(got[r][i][k]) != math.Float64bits(want[i][0][k]) {
					t.Fatalf("round %d rank %d elem %d: faulted %v != fault-free %v",
						i, r, k, got[r][i][k], want[i][0][k])
				}
			}
		}
	}
}

// TestAllreduceScalarMatchesVector pins the scalar fast path to the
// vector collective it wraps.
func TestAllreduceScalarMatchesVector(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		x := 1.0 / float64(c.Rank()+3)
		s := c.AllreduceScalar(OpSum, x)
		out := make([]float64, 1)
		c.Allreduce(OpSum, []float64{x}, out)
		if math.Float64bits(s) != math.Float64bits(out[0]) {
			t.Errorf("rank %d: scalar %v != vector %v", c.Rank(), s, out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceZeroAlloc pins the hot-path property the blowup watchdog
// and mass fixer rely on: once the pooled scratch is warm, Allreduce and
// AllreduceScalar perform ZERO heap allocations per call. Measured
// marginally like the halo exchange's bound — world setup and the first
// (pool-warming) calls cost the same constant in both runs, so the
// difference isolates the per-call cost. Requires the steady-state
// defaults: retransmission off (payload buffers recycle through the
// mailbox freelist) and no receive deadline.
func TestAllreduceZeroAlloc(t *testing.T) {
	const nranks, vlen = 4, 8
	in := make([]float64, vlen)
	for k := range in {
		in[k] = float64(k) + 0.25
	}
	for _, flavour := range []struct {
		name string
		run  func(c *Comm, out []float64)
	}{
		{"vector", func(c *Comm, out []float64) { c.Allreduce(OpSum, in, out) }},
		{"scalar", func(c *Comm, out []float64) { out[0] = c.AllreduceScalar(OpMax, out[0]) }},
	} {
		worldAllocs := func(calls int) float64 {
			return testing.AllocsPerRun(5, func() {
				w := NewWorld(nranks)
				err := w.Run(func(c *Comm) {
					out := make([]float64, vlen)
					for i := 0; i < calls; i++ {
						flavour.run(c, out)
					}
				})
				if err != nil {
					t.Error(err)
				}
			})
		}
		base := worldAllocs(52)
		many := worldAllocs(102)
		perCall := (many - base) / 50
		if perCall > 0 {
			t.Errorf("%s: %.2f heap allocations per steady-state allreduce, want 0 (world(52)=%.0f world(102)=%.0f)",
				flavour.name, perCall, base, many)
		}
	}
}

// TestAllreduceCollStats checks the collective-phase accounting the
// scaling campaign bills against: every Allreduce increments CollOps on
// every rank and accumulates nonzero wall time.
func TestAllreduceCollStats(t *testing.T) {
	const n, calls = 3, 4
	w := NewWorld(n)
	if err := runBounded(t, w, 30*time.Second, func(c *Comm) {
		out := make([]float64, 2)
		for i := 0; i < calls; i++ {
			c.Allreduce(OpSum, []float64{1, 2}, out)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		s := w.Stats(r)
		if s.CollOps != calls {
			t.Errorf("rank %d: CollOps = %d, want %d", r, s.CollOps, calls)
		}
		if s.CollNs <= 0 {
			t.Errorf("rank %d: CollNs = %d, want > 0", r, s.CollNs)
		}
	}
}
