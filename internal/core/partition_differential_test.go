package core

import (
	"testing"

	"swcam/internal/exec"
	"swcam/internal/mesh"
)

// chopOrder assigns the elements of a space-filling-curve order to
// nranks contiguous, near-equal chunks.
func chopOrder(order []int, nranks int) []int {
	rankOf := make([]int, len(order))
	base, extra := len(order)/nranks, len(order)%nranks
	pos := 0
	for r := 0; r < nranks; r++ {
		size := base
		if r < extra {
			size++
		}
		for k := 0; k < size; k++ {
			rankOf[order[pos]] = r
			pos++
		}
	}
	return rankOf
}

// TestPartitionOrderingBitIdentity is the SFC differential demanded by
// the partition upgrade: the trajectory must be bit-identical (FNV-64
// over every float64 of the gathered state) no matter which curve the
// elements were chopped along — Hilbert, Morton, or whatever
// mesh.Partition picked — across backends and rank counts. This is the
// property that makes the min-cut curve selection safe to ship: layout
// choices move elements between ranks but can never move a bit of
// physics, because the canonical per-copy DSS and the canonical rank-0
// mass fixer erase partition shape from the arithmetic.
func TestPartitionOrderingBitIdentity(t *testing.T) {
	cfg := testDycoreCfg(3, 6, 2)
	const (
		seed  = 20260808
		steps = 3
	)
	global, err := randomizedGlobal(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(cfg.Ne, cfg.Np)

	for _, b := range []exec.Backend{exec.Intel, exec.Athread} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			for _, nranks := range []int{2, 3, 4} {
				minCut, err := m.Partition(nranks)
				if err != nil {
					t.Fatal(err)
				}
				layouts := []struct {
					name   string
					rankOf []int
				}{
					{"min-cut", minCut},
					{"hilbert", chopOrder(m.HilbertOrder(), nranks)},
					{"morton", chopOrder(m.SFCOrder(), nranks)},
				}
				var refHash uint64
				for li, lay := range layouts {
					job, err := newJobWithPartition(cfg, b, true, nranks, lay.rankOf)
					if err != nil {
						t.Fatal(err)
					}
					local := job.Scatter(global)
					job.Run(local, steps)
					h := StateFNV(job.Gather(local))
					if li == 0 {
						refHash = h
						continue
					}
					if h != refHash {
						t.Errorf("nranks=%d: %s layout hash %016x != %s reference %016x",
							nranks, lay.name, h, layouts[0].name, refHash)
					}
				}
			}
		})
	}
}
