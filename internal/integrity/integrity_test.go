package integrity

import (
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"swcam/internal/dycore"
)

func testState(seed float64) *dycore.State {
	st := dycore.NewState(3, 2, 4, 2)
	v := seed
	for _, f := range st.Fields() {
		for e := range f.Data {
			for i := range f.Data[e] {
				v = v*1.000001 + 0.001
				f.Data[e][i] = v
			}
		}
	}
	return st
}

func TestSealVerifyRoundTrip(t *testing.T) {
	st := testState(1.0)
	s := SealState(st, 7)
	if s.Step != 7 {
		t.Fatalf("seal step = %d, want 7", s.Step)
	}
	if err := s.Verify(st); err != nil {
		t.Fatalf("pristine state failed verification: %v", err)
	}
	// Verification must not perturb the seal: repeatable.
	if err := s.Verify(st); err != nil {
		t.Fatalf("second verification failed: %v", err)
	}
}

// Every single-bit flip of every value of every field must be caught,
// including low mantissa bits that no physical plausibility check
// could ever see.
func TestSealDetectsEverySingleBitFlipLocation(t *testing.T) {
	st := testState(2.0)
	s := SealState(st, 1)
	for _, f := range st.Fields() {
		for e := range f.Data {
			// One value per element per field keeps the test fast while
			// still covering every (field, element) location.
			i := len(f.Data[e]) / 2
			orig := f.Data[e][i]
			f.Data[e][i] = math.Float64frombits(math.Float64bits(orig) ^ 1)
			err := s.Verify(st)
			if err == nil {
				t.Fatalf("flip in %s[%d][%d] undetected", f.Name, e, i)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("detection does not wrap ErrCorrupt: %v", err)
			}
			f.Data[e][i] = orig
		}
	}
	if err := s.Verify(st); err != nil {
		t.Fatalf("restored state failed verification: %v", err)
	}
}

func TestSealDetectsEveryMantissaBit(t *testing.T) {
	st := testState(3.0)
	s := SealState(st, 1)
	orig := st.T[1][5]
	for bit := uint(0); bit < 52; bit++ {
		st.T[1][5] = math.Float64frombits(math.Float64bits(orig) ^ (1 << bit))
		if err := s.Verify(st); err == nil {
			t.Fatalf("mantissa bit %d flip undetected", bit)
		}
		st.T[1][5] = orig
	}
}

// TestSealPayloadCRCMatchesByteLoop holds every element CRC of a seal to
// the byte-at-a-time CRC-32C of the element's field values in Fields()
// order, little-endian: the value the seal carried before it shared
// mpirt's in-place hardware CRC (the oracle mpirt's
// TestPayloadCRCMatchesByteLoop uses).
func TestSealPayloadCRCMatchesByteLoop(t *testing.T) {
	st := testState(3.0)
	st.U[1][0], st.T[2][5] = math.NaN(), math.Copysign(0, -1)
	s := SealState(st, 1)
	tab := crc32.MakeTable(crc32.Castagnoli)
	for e, got := range s.crcs {
		crc := ^uint32(0)
		for _, f := range st.Fields() {
			for _, v := range f.Data[e] {
				bits := math.Float64bits(v)
				for k := 0; k < 64; k += 8 {
					crc = tab[byte(crc)^byte(bits>>k)] ^ (crc >> 8)
				}
			}
		}
		if want := ^crc; got != want {
			t.Fatalf("element %d sealed %#08x, byte loop gives %#08x", e, got, want)
		}
	}
}

func TestSealCloneIsIndependent(t *testing.T) {
	st := testState(4.0)
	s := SealState(st, 3)
	c := s.Clone()
	st.U[0][0] += 1
	s.Reseal(st, 4)
	if err := s.Verify(st); err != nil {
		t.Fatalf("resealed state failed verification: %v", err)
	}
	if err := c.Verify(st); err == nil {
		t.Fatal("clone tracked the reseal; it must be independent")
	}
	if c.Step != 3 {
		t.Fatalf("clone step = %d, want 3", c.Step)
	}
}

func TestSealDimensionMismatch(t *testing.T) {
	st := testState(5.0)
	s := NewRankSeal(2) // state has 3 elements
	if err := s.Verify(st); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dimension mismatch not flagged as corruption: %v", err)
	}
}

func TestLedgerAcceptsSmallDriftRejectsLarge(t *testing.T) {
	l := NewLedger()
	base := Invariants{Mass: 1e9, Energy: 5e14, TracerMass: 2e7}
	if err := l.Check(1, base); err != nil {
		t.Fatalf("first record rejected: %v", err)
	}
	// Roundoff-scale mass drift, physics-scale energy drift: fine.
	ok := Invariants{Mass: base.Mass * (1 + 1e-12), Energy: base.Energy * 1.01, TracerMass: base.TracerMass * 0.99}
	if err := l.Check(2, ok); err != nil {
		t.Fatalf("legitimate drift rejected: %v", err)
	}
	// Exponent-scale mass jump: an SDC signature.
	bad := ok
	bad.Mass *= 2
	err := l.Check(3, bad)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("2x mass jump not flagged: %v", err)
	}
	// The suspect step must NOT have been recorded: after rollback the
	// replay of step 3 checks against clean step 2.
	if _, recorded := l.Recorded(3); recorded {
		t.Fatal("violating step was recorded; replay would compare against poison")
	}
	good := ok
	good.Mass *= 1 + 1e-13
	if err := l.Check(3, good); err != nil {
		t.Fatalf("replayed clean step rejected: %v", err)
	}
}

func TestLedgerFlagsNonFinite(t *testing.T) {
	l := NewLedger()
	if err := l.Check(1, Invariants{Mass: 1, Energy: 1, TracerMass: 1}); err != nil {
		t.Fatal(err)
	}
	for _, inv := range []Invariants{
		{Mass: math.NaN(), Energy: 1, TracerMass: 1},
		{Mass: 1, Energy: math.Inf(1), TracerMass: 1},
	} {
		if err := l.Check(2, inv); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-finite invariant not flagged: %v", err)
		}
	}
}

func TestLedgerReplayOverwritesIdentically(t *testing.T) {
	l := NewLedger()
	inv := Invariants{Mass: 3, Energy: 4, TracerMass: 5}
	// Steps 0..4, a rollback to step 2 replaying 3 and 4 with identical
	// values, then step 5. The first check primes newest (step 0 is its
	// zero value), and a replayed older step never moves it back.
	newest := 0
	for _, step := range []int{0, 1, 2, 3, 4, 3, 4, 5} {
		if err := l.Check(step, inv); err != nil {
			t.Fatalf("step %d rejected: %v", step, err)
		}
		newest = max(newest, step)
		if !l.primed || l.newest != newest {
			t.Fatalf("after step %d: primed=%v newest=%d, want true %d", step, l.primed, l.newest, newest)
		}
	}
}

// TestLedgerPrunesHistory: the oldest step kept is newest-ledgerKeep,
// and the step before it is gone.
func TestLedgerPrunesHistory(t *testing.T) {
	l := NewLedger()
	inv := Invariants{Mass: 1, Energy: 1, TracerMass: 1}
	const newest = ledgerKeep + 10
	for step := 1; step <= newest; step++ {
		if err := l.Check(step, inv); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.hist) != ledgerKeep+1 {
		t.Fatalf("history holds %d entries, want %d", len(l.hist), ledgerKeep+1)
	}
	if _, ok := l.Recorded(newest - ledgerKeep); !ok {
		t.Errorf("step %d (newest-ledgerKeep) evicted", newest-ledgerKeep)
	}
	if _, ok := l.Recorded(newest - ledgerKeep - 1); ok {
		t.Errorf("step %d (newest-ledgerKeep-1) still on record", newest-ledgerKeep-1)
	}
}

// TestLedgerDriftBoundary pins the tolerance comparison of each
// invariant against its own tolerance: a drift exactly equal to the
// tolerance passes, and one a single ulp above it fails. The values are
// powers of two, so the drift 4 -> 5 is exactly 0.25.
func TestLedgerDriftBoundary(t *testing.T) {
	const drift = 0.25
	for q, name := range []string{"mass", "energy", "tracer mass"} {
		for _, c := range []struct {
			tol    float64
			reject bool
		}{{drift, false}, {math.Nextafter(drift, 0), true}} {
			l := NewLedger()
			tols := []*float64{&l.MassTol, &l.EnergyTol, &l.TracerTol}
			*tols[q] = c.tol
			cur := [3]float64{4, 4, 4}
			cur[q] = 5
			if err := l.Check(1, Invariants{4, 4, 4}); err != nil {
				t.Fatal(err)
			}
			err := l.Check(2, Invariants{cur[0], cur[1], cur[2]})
			if got := errors.Is(err, ErrCorrupt); got != c.reject {
				t.Errorf("%s drift %g at tolerance %g: err = %v, want rejected=%v", name, drift, c.tol, err, c.reject)
			}
		}
	}
}

// Recorded reports whether the ledger holds invariants for step
// (diagnostics and tests).
func (l *Ledger) Recorded(step int) (Invariants, bool) {
	inv, ok := l.hist[step]
	return inv, ok
}
