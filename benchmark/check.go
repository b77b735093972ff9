package main

import (
	"fmt"
	"math"

	"swcam/internal/dycore"
)

// Tolerances of the in-run gate. The distributed run regroups the DSS
// and scan sums, so it matches the serial reference to rounding, not
// bits; identical configurations must match bit for bit.
const (
	refTol  = 1e-10 // max-norm relative difference on U, T, DP
	massTol = 1e-12 // relative dp-mass drift from the IC
)

// observations is everything a workload run hands the gate. Model
// workloads fill the rep and state fields; serve-mix fills the request
// fields and enters its members' final snapshots as reps.
type observations struct {
	// One entry per rep (or, for serve-mix, per served member): the
	// error it returned, the FNV-64 of its gathered final state, and the
	// hash an independent fault-free unsupervised Intel job reaches on
	// the same configuration and steps. On a model workload every rep
	// wants the same hash, which is rep determinism, the cross-backend
	// identity and the fault-free-supervision identity at once.
	repErrs   []error
	repHashes []uint64
	repWant   []uint64

	// got is the last rep's gathered state, ref the serial reference
	// after the same steps, mass0 and mass the dp mass of the IC and of
	// got. got == nil skips the state checks (every rep failed).
	got, ref    *dycore.State
	mass0, mass float64

	// Per-request outcomes of the load generator.
	requests []reqOutcome
}

// reqOutcome is how one request ended.
type reqOutcome struct {
	status    int  // 0 when the transport failed
	malformed bool // 200 but not the JSON the route promises
}

// verdict counts operations: an operation is one rep or one request,
// and it fails if it errored, broke a check, or was not a well-formed
// 200.
type verdict struct {
	Attempted int
	Failed    int
	Reasons   []string
}

func (v *verdict) fail(format string, a ...any) {
	v.Failed++
	if len(v.Reasons) < 20 {
		v.Reasons = append(v.Reasons, fmt.Sprintf(format, a...))
	}
}

// gate is the whole in-run correctness check. It pins no literal
// hashes: a change that legitimately moves trajectory bits moves every
// rep and the peer hash together, and still passes.
func gate(o observations) verdict {
	var v verdict
	v.Attempted = len(o.repHashes) + len(o.requests)

	last := len(o.repHashes) - 1
	lastFailed := false
	for i, h := range o.repHashes {
		switch {
		case o.repErrs[i] != nil:
			v.fail("rep %d: %v", i, o.repErrs[i])
		case h != o.repWant[i]:
			v.fail("rep %d: state hash %016x, want %016x of the independent unsupervised Intel job", i, h, o.repWant[i])
		default:
			continue
		}
		lastFailed = i == last
	}

	// State checks on the last rep; a rep is one operation and fails once.
	if o.got != nil && last >= 0 && !lastFailed {
		if err := stateCheck(o); err != nil {
			v.fail("rep %d: %v", last, err)
		}
	}

	for i, r := range o.requests {
		switch {
		case r.status == 0:
			v.fail("request %d: transport failure", i)
		case r.status != 200:
			v.fail("request %d: status %d", i, r.status)
		case r.malformed:
			v.fail("request %d: malformed body", i)
		}
	}
	return v
}

// stateCheck is the finite, mass-drift and serial-reference part.
func stateCheck(o observations) error {
	if err := o.got.Check(0); err != nil {
		return err
	}
	if o.mass0 != 0 {
		if d := math.Abs(o.mass-o.mass0) / math.Abs(o.mass0); d > massTol || math.IsNaN(d) {
			return fmt.Errorf("dp mass drifted %.3e from the IC (tolerance %.0e)", d, massTol)
		}
	}
	if o.ref == nil {
		return nil
	}
	for _, f := range []struct {
		name     string
		got, ref [][]float64
	}{{"U", o.got.U, o.ref.U}, {"T", o.got.T, o.ref.T}, {"DP", o.got.DP, o.ref.DP}} {
		if d := maxRelDiff(f.got, f.ref); d > refTol || math.IsNaN(d) {
			return fmt.Errorf("%s differs from the serial reference by %.3e (tolerance %.0e)", f.name, d, refTol)
		}
	}
	return nil
}

// maxRelDiff is max|a-b| over max|b|.
func maxRelDiff(a, b [][]float64) float64 {
	var diff, scale float64
	for e := range b {
		for i, rv := range b[e] {
			if d := math.Abs(a[e][i] - rv); d > diff || math.IsNaN(d) {
				diff = d
			}
			if s := math.Abs(rv); s > scale {
				scale = s
			}
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}
