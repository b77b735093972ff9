package core

import (
	"math"
	"math/rand"
	"testing"

	"swcam/internal/exec"
	"swcam/internal/mesh"
	"swcam/internal/mpirt"
)

// canonicalLayouts returns element-to-rank assignments that own the
// same mesh very differently: contiguous chunks of the Hilbert and
// Morton curves, and a hand-scrambled deal with no locality at all.
func canonicalLayouts(m *mesh.Mesh, nranks int) map[string][]int {
	scrambled := make([]int, m.NElems())
	for ge := range scrambled {
		scrambled[ge] = (7*ge + ge/3) % nranks
	}
	return map[string][]int{
		"hilbert":   chopOrder(m.HilbertOrder(), nranks),
		"morton":    chopOrder(m.SFCOrder(), nranks),
		"scrambled": scrambled,
	}
}

// TestCanonicalSums pins the one gather the mass fixer, the
// precipitation diagnostic and the invariant ledger all reduce through:
// for every partial width, rank count and ownership layout, rank 0's
// sums are bit-equal to a plain ascending-id loop over the global
// per-element array — the association no partition can change.
func TestCanonicalSums(t *testing.T) {
	cfg := testDycoreCfg(2, 4, 1)
	m := mesh.New(cfg.Ne, cfg.Np)
	rng := rand.New(rand.NewSource(20261003))
	global := make([]float64, reduceWidth*m.NElems())
	for i := range global {
		// Wide dynamic range, both signs: any regrouping moves bits.
		global[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
	}
	for width := 1; width <= reduceWidth; width++ {
		want := make([]float64, width)
		for ge := 0; ge < m.NElems(); ge++ {
			for k := range want {
				want[k] += global[width*ge+k]
			}
		}
		for _, nranks := range []int{1, 2, 3, 5} {
			for name, rankOf := range canonicalLayouts(m, nranks) {
				job, err := newJobWithPartition(cfg, exec.Intel, true, nranks, rankOf)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float64, width)
				err = mpirt.NewWorld(nranks).Run(func(c *mpirt.Comm) {
					r := c.Rank()
					elems := job.Plans[r].Elems
					local := make([]float64, width*len(elems))
					for le, ge := range elems {
						copy(local[width*le:], global[width*ge:width*ge+width])
					}
					sums := make([]float64, width)
					job.canonicalSums(c, r, tagMass, local, sums)
					if r == 0 {
						copy(got, sums)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Errorf("width=%d ranks=%d %s: column %d sums to %v, ascending loop %v",
							width, nranks, name, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestCanonicalSumsZeroAlloc: once the per-rank buffers exist, a gather
// allocates nothing in core. Measured marginally, like halo's
// TestExchangeSteadyStateZeroAlloc: the world setup costs the same in
// both runs, so the difference isolates the per-reduction cost (under
// the steady-state defaults: no retransmission, no receive deadline).
func TestCanonicalSumsZeroAlloc(t *testing.T) {
	const nranks = 3
	job, err := NewParallelJob(testDycoreCfg(2, 4, 1), exec.Intel, true, nranks)
	if err != nil {
		t.Fatal(err)
	}
	worldAllocs := func(gathers int) float64 {
		return testing.AllocsPerRun(5, func() {
			err := mpirt.NewWorld(nranks).Run(func(c *mpirt.Comm) {
				rb := job.red[c.Rank()]
				for i := 0; i < gathers; i++ {
					job.canonicalSums(c, c.Rank(), tagInvariant, rb.local, rb.sums[:])
					// The callers' Bcast: it also keeps senders from running
					// ahead of rank 0, so payloads recycle through the
					// mailbox freelist as they do in a step.
					c.Bcast(0, rb.out[:])
				}
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
	base := worldAllocs(52)
	many := worldAllocs(102)
	if perCall := (many - base) / 50; perCall > 0 {
		t.Errorf("%.2f heap allocations per warm canonical gather, want 0 (world(52)=%.0f world(102)=%.0f)",
			perCall, base, many)
	}
}
