package integrity

import (
	"fmt"
	"math"
)

// Invariants are the globally integrated quantities the ledger tracks
// step over step. They are computed on the canonical rank-0 reduction
// (per-element partials summed in ascending global-element order), so
// the same trajectory yields bit-identical invariants regardless of
// partitioning — a replayed step overwrites its history entry with the
// exact same values and the ledger converges under rollback/replay.
type Invariants struct {
	Mass       float64 // sum MP * dp over all nodes/levels
	Energy     float64 // sum MP * (Cp*T + (u^2+v^2)/2) * dp
	TracerMass float64 // sum MP * qdp over all tracers
}

// Default step-over-step relative drift tolerances. Mass is conserved
// near machine precision by construction (DSS + canonical mass fixer),
// so its tolerance is tight; energy and tracer mass drift legitimately
// through hyperviscosity, remap, limiting, and moist physics, so their
// guards are loose — they exist to catch exponent-scale in-compute
// flips, not roundoff. The scrubber is the precision instrument.
const (
	DefaultMassTol   = 1e-6
	DefaultEnergyTol = 0.1
	DefaultTracerTol = 0.1

	// ledgerKeep bounds the history: entries older than the newest
	// step by more than this are pruned. Far larger than any rollback
	// distance (checkpoints are a few steps apart).
	ledgerKeep = 128
)

// Ledger is the per-step conservation guard. Check compares step s
// against the recorded step s-1 and flags relative drift beyond the
// tolerances as corruption. History is keyed by step so rollback+replay
// naturally re-checks against the pre-fault record.
//
// The ledger is owned by rank 0 of the reduction: only one goroutine
// calls Check, so it is unsynchronized by design.
type Ledger struct {
	MassTol   float64
	EnergyTol float64
	TracerTol float64

	hist   map[int]Invariants
	newest int
	primed bool
}

// NewLedger returns a ledger with the default tolerances.
func NewLedger() *Ledger {
	return &Ledger{
		MassTol:   DefaultMassTol,
		EnergyTol: DefaultEnergyTol,
		TracerTol: DefaultTracerTol,
		hist:      map[int]Invariants{},
	}
}

// Check records inv as the invariants of step and, when step-1 is on
// record, flags drift beyond the tolerances. A violation returns an
// error wrapping ErrCorrupt and does NOT record the suspect values —
// the post-rollback replay must compare against the last clean record.
func (l *Ledger) Check(step int, inv Invariants) error {
	for _, c := range []struct {
		name string
		v    float64
	}{{"mass", inv.Mass}, {"energy", inv.Energy}, {"tracer mass", inv.TracerMass}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("%w: global %s is %v at step %d", ErrCorrupt, c.name, c.v, step)
		}
	}
	if prev, ok := l.hist[step-1]; ok {
		for _, c := range []struct {
			name     string
			cur, old float64
			tol      float64
		}{
			{"mass", inv.Mass, prev.Mass, l.MassTol},
			{"energy", inv.Energy, prev.Energy, l.EnergyTol},
			{"tracer mass", inv.TracerMass, prev.TracerMass, l.TracerTol},
		} {
			scale := math.Max(math.Abs(c.old), 1e-30)
			if drift := math.Abs(c.cur-c.old) / scale; drift > c.tol {
				return fmt.Errorf("%w: global %s drifted %.3e (tolerance %.1e) from step %d to %d: %.17g -> %.17g",
					ErrCorrupt, c.name, drift, c.tol, step-1, step, c.old, c.cur)
			}
		}
	}
	l.hist[step] = inv
	if !l.primed || step > l.newest {
		l.newest, l.primed = step, true
	}
	for s := range l.hist {
		if s < l.newest-ledgerKeep {
			delete(l.hist, s)
		}
	}
	return nil
}
