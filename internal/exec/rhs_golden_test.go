package exec

import "testing"

// rhsGolden is one backend's full Cost record of a compute_and_apply_rhs
// call and the FNV-64 of the state it writes.
type rhsGolden struct {
	cost Cost
	hash uint64
}

// rhsGoldens pins compute_and_apply_rhs (ne2, qsize 0, dt 60, one
// worker, Whole) at three vertical shapes of the Figure 2 split: nlev 4
// leaves mesh rows 4..7 with no levels, nlev 8 gives one level per row,
// nlev 30 gives uneven rows (4 levels on rows 0..5, 3 on rows 6..7).
// Every field is pinned, the register messages and the busiest CPE's
// flops included, so a scan that moves carries between rows, drops a
// message or charges a flop to the wrong CPE fails here even when the
// state bits survive. The Athread state is bit-identical to Intel's
// while every row holds at most one level; at nlev 30 the §7.4
// regrouping of the vertical sums changes the rounding.
var rhsGoldens = map[int]map[Backend]rhsGolden{
	4: {
		Intel:   {Cost{Backend: Intel, FlopsScalar: 273408, MaxCPEFlops: 273408, MemBytes: 150528}, 0x7ac2b0501a110215},
		OpenACC: {Cost{Backend: OpenACC, FlopsScalar: 370944, MaxCPEFlops: 8928, MemBytes: 399552, DMAOps: 2640, Launches: 1, LDMPeak: 6016}, 0x7ac2b0501a110215},
		Athread: {Cost{Backend: Athread, FlopsScalar: 31104, FlopsVector: 270336, MaxCPEFlops: 9312, MemBytes: 417920, DMAOps: 3328, RegMsgs: 8064, Launches: 1, LDMPeak: 4624}, 0x7ac2b0501a110215},
	},
	8: {
		Intel:   {Cost{Backend: Intel, FlopsScalar: 546816, MaxCPEFlops: 546816, MemBytes: 297984}, 0xffa88d7c823f6c8e},
		OpenACC: {Cost{Backend: OpenACC, FlopsScalar: 981504, MaxCPEFlops: 19536, MemBytes: 1044864, DMAOps: 7200, Launches: 1, LDMPeak: 6528}, 0xffa88d7c823f6c8e},
		Athread: {Cost{Backend: Athread, FlopsScalar: 54144, FlopsVector: 540672, MaxCPEFlops: 9312, MemBytes: 565376, DMAOps: 3328, RegMsgs: 8064, Launches: 1, LDMPeak: 4624}, 0xffa88d7c823f6c8e},
	},
	30: {
		Intel:   {Cost{Backend: Intel, FlopsScalar: 2050560, MaxCPEFlops: 2050560, MemBytes: 1108992}, 0xad9ea5d094465287},
		OpenACC: {Cost{Backend: OpenACC, FlopsScalar: 8622720, MaxCPEFlops: 158112, MemBytes: 8987040, DMAOps: 66600, Launches: 1, LDMPeak: 9344}, 0xad9ea5d094465287},
		Athread: {Cost{Backend: Athread, FlopsScalar: 180864, FlopsVector: 2027520, MaxCPEFlops: 36816, MemBytes: 1376384, DMAOps: 3328, RegMsgs: 8064, Launches: 1, LDMPeak: 9280}, 0x38023212a7992b06},
	},
}

// TestRHSCostGoldens runs compute_and_apply_rhs on all three backends at
// each pinned shape and requires the exact Cost record and output hash.
func TestRHSCostGoldens(t *testing.T) {
	for _, nlev := range []int{4, 8, 30} {
		m, _, st0 := testSetup(t, 2, nlev, 0)
		for _, b := range Backends {
			en := tiledEngine(m, nlev, 0, 1)
			cur, out := st0.Clone(), st0.Clone()
			got := rhsGolden{en.ComputeAndApplyRHS(b, cur, cur, out, 60), hashState(out)}
			if want := rhsGoldens[nlev][b]; got != want {
				t.Errorf("nlev %d %v:\n got:  %+v hash %#x\n want: %+v hash %#x",
					nlev, b, got.cost, got.hash, want.cost, want.hash)
			}
		}
	}
}
