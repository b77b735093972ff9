package perf

import (
	"sync"
	"testing"
)

// table1Rows runs the Table 1 kernel simulation once for the package's
// tests.
var table1Rows = sync.OnceValue(func() []KernelRow { return Table1(DefaultTable1Config()) })

// contains reports whether v lies in the closed interval s.
func (s Span) contains(v float64) bool { return s.Lo <= v && v <= s.Hi }

// TestLedger asserts every row of the ledger: the measured value lies in
// the row's range; a reproduced row's range contains the paper's value;
// a deviation row gives its reason and pins its range to ±2% of one
// value; ids are unique; and the anchors whose calibration is computed in
// code read the same constant as their row.
func TestLedger(t *testing.T) {
	l := BuildLedger(table1Rows())
	seen := map[string]bool{}
	for _, c := range l {
		if seen[c.ID] {
			t.Errorf("duplicate id %s", c.ID)
		}
		seen[c.ID] = true
		if c.Section == "" || c.Quantity == "" || c.Paper.Lo > c.Paper.Hi {
			t.Errorf("%s: malformed row %+v", c.ID, c)
		}
		if !c.Range.contains(c.Measured) {
			t.Errorf("%s: measured %g outside %g..%g", c.ID, c.Measured, c.Range.Lo, c.Range.Hi)
		}
		if c.Deviation == "" {
			if !c.Range.contains(c.Paper.Lo) || !c.Range.contains(c.Paper.Hi) {
				t.Errorf("%s: reproduced, but the range %v misses the paper's %v", c.ID, c.Range, c.Paper)
			}
			continue
		}
		if mid := (c.Range.Lo + c.Range.Hi) / 2; c.Range.Hi-c.Range.Lo > 2*pinTol*mid*(1+1e-12) {
			t.Errorf("%s: deviation range %v is wider than ±2%% of %g", c.ID, c.Range, mid)
		}
	}
	for id, constant := range map[string]float64{
		"table3.12km.ours": table3Anchor,
		"power.linpack":    linpackFlopsPerWatt / 1e9,
	} {
		if c := l.Get(id); !c.Anchor || c.Paper.Lo != constant {
			t.Errorf("%s: anchor %v with paper %v, want the calibration's constant %g", id, c.Anchor, c.Paper, constant)
		}
	}
}
