package halo

import (
	"errors"
	"math"
	"testing"
	"time"

	"swcam/internal/mesh"
	"swcam/internal/mpirt"
)

// The boundary exchange under injected transport faults: corruption and
// drops must surface as detection errors (ErrCorrupt / ErrTimeout) from
// the exchange itself, never as silently wrong fields and never as a
// hang. Both flavours are exercised through the same table.
func TestDSSDetectsInjectedFaults(t *testing.T) {
	const nranks = 4
	m := mesh.New(3, 4)
	rankOf, err := m.Partition(nranks)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}

	cases := []struct {
		name    string
		overlap bool
		kind    mpirt.FaultKind
		want    error
	}{
		{"original/corrupt", false, mpirt.CorruptMsg, mpirt.ErrCorrupt},
		{"original/drop", false, mpirt.DropMsg, mpirt.ErrTimeout},
		{"overlap/corrupt", true, mpirt.CorruptMsg, mpirt.ErrCorrupt},
		{"overlap/drop", true, mpirt.DropMsg, mpirt.ErrTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			global := makeField(m, 2, 11)
			local := scatterToRanks(global, plans)
			before := scatterToRanks(global, plans)

			// Fault the first send of rank 1's exchange; every peer of
			// rank 1 either detects the fault directly or is unblocked
			// when the world aborts.
			plan := mpirt.NewFaultPlan(nranks).Add(mpirt.Fault{Rank: 1, AfterOp: 1, Kind: tc.kind})
			w := mpirt.NewWorld(nranks)
			w.SetFaults(plan)
			w.SetRecvTimeout(200 * time.Millisecond)

			detected := make([]error, nranks)
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *mpirt.Comm) {
					r := c.Rank()
					var err error
					if tc.overlap {
						_, err = plans[r].DSSOverlap(c, NodeMajor(2), nil, local[r])
					} else {
						_, err = plans[r].DSSOriginal(c, NodeMajor(2), local[r])
					}
					detected[r] = err
					if err != nil {
						mpirt.Fail(err) // abort so peers cannot wait forever
					}
				})
			}()
			var runErr error
			select {
			case runErr = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("faulty DSS exchange hung")
			}
			if runErr == nil {
				t.Fatal("faulty run completed without error")
			}
			hit := false
			for r, err := range detected {
				if errors.Is(err, tc.want) {
					hit = true
				}
				// Fields are untouched on a detected fault: with an empty
				// window, both flavours scatter only after all receives.
				if err != nil {
					for le := range local[r] {
						for k := range local[r][le] {
							if local[r][le][k] != before[r][le][k] {
								t.Fatalf("rank %d: fields modified despite detection error", r)
							}
						}
					}
				}
			}
			if !hit {
				t.Fatalf("no rank detected %v; per-rank errors: %v", tc.want, detected)
			}
		})
	}
}

// A clean world with a receive deadline set must still complete the
// exchange — deadlines only bite when something is actually lost.
func TestDSSWithDeadlineStillCorrect(t *testing.T) {
	const nranks = 3
	m := mesh.New(2, 4)
	rankOf, _ := m.Partition(nranks)
	plans := make([]*Plan, nranks)
	for r := range plans {
		plans[r] = NewPlan(m, rankOf, r)
	}
	global := makeField(m, 1, 13)
	want := make([][]float64, len(global))
	for i := range global {
		want[i] = append([]float64(nil), global[i]...)
	}
	serialDSS(m, want, 1)
	local := scatterToRanks(global, plans)
	w := mpirt.NewWorld(nranks)
	w.SetRecvTimeout(10 * time.Second)
	if err := w.Run(func(c *mpirt.Comm) {
		if _, err := plans[c.Rank()].DSSOverlap(c, NodeMajor(1), nil, local[c.Rank()]); err != nil {
			mpirt.Fail(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for r, p := range plans {
		for le, ge := range p.Elems {
			for k := range local[r][le] {
				if math.Abs(local[r][le][k]-want[ge][k]) > 1e-12 {
					t.Fatalf("deadline run wrong at rank %d elem %d", r, ge)
				}
			}
		}
	}
}
