package perf

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"swcam/internal/exec"
	"swcam/internal/tc"
)

// The ledger: one row per number of the paper's evaluation that the
// model reproduces. Each paper value is written here and nowhere else in
// the code; the measured value comes from the function that computes it
// for cmd/benchtab. A row either reproduces the paper — its accepted
// range contains the paper's value — or says why not, with its range
// pinned to ±2% of the value the model gives today, so the model cannot
// drift toward or away from the paper unnoticed. TestLedger asserts every
// row, and EXPERIMENTS.md's ledger block is rendered from it.

// Claim is one ledger row.
type Claim struct {
	ID       string  `json:"id"`
	Section  string  `json:"section"`
	Quantity string  `json:"quantity"`
	Paper    Span    `json:"paper"` // a point, or the band the paper states
	Measured float64 `json:"measured"`
	Range    Span    `json:"range"` // accepted values of Measured
	// Anchor marks a paper value a [cal] constant was fitted to.
	Anchor bool `json:"anchor"`
	// Deviation says why the model misses the paper; empty when the row
	// is reproduced.
	Deviation string `json:"deviation,omitempty"`
}

// Span is a closed interval.
type Span struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// String renders s to three significant figures, as one value when both
// ends print alike.
func (s Span) String() string {
	lo, hi := sig3(s.Lo), sig3(s.Hi)
	if lo == hi {
		return lo
	}
	return lo + "–" + hi
}

// sig3 prints v to three significant figures, or in full when it is a
// whole number (the exact counts).
func sig3(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

func (s Span) clip(lo, hi float64) Span { return Span{math.Max(s.Lo, lo), math.Min(s.Hi, hi)} }

// tol maps a paper value to the range a reproduced row accepts.
type tol func(paper float64) Span

func rel(f float64) tol    { return func(p float64) Span { return Span{p * (1 - f), p * (1 + f)} } }
func abs(d float64) tol    { return func(p float64) Span { return Span{p - d, p + d} } }
func factor(k float64) tol { return func(p float64) Span { return Span{p / k, p * k} } }

// pinTol is a deviation row's range around today's value.
const pinTol = 0.02

// Tolerances of reproduced rows, by kind of quantity.
var (
	exact    = rel(0)
	anchored = rel(1e-9) // a calibration computed in code lands on its anchor
	modelled = rel(0.15) // run times, PFlops, SYPD: model output
	perKern  = factor(2) // Table 1 ratios: the model has one rate per machine, not per compiler
	eff      = abs(0.03) // parallel efficiencies
)

func (c *Claim) cal() *Claim { c.Anchor = true; return c }

// Ledger is the table of paper claims in paper order.
type Ledger []Claim

// Get returns the row with the given id; an unknown id panics.
func (l Ledger) Get(id string) Claim {
	for _, c := range l {
		if c.ID == id {
			return c
		}
	}
	panic("perf: no ledger row " + id)
}

// status is "reproduced" or "deviation: <reason>", with "[cal]" on
// anchors.
func (c Claim) status() string {
	s := "reproduced"
	if c.Deviation != "" {
		s = "deviation"
	}
	if c.Anchor {
		s += " [cal]"
	}
	if c.Deviation != "" {
		s += ": " + c.Deviation
	}
	return s
}

// Markdown renders the ledger as the table EXPERIMENTS.md carries
// between its ledger markers.
func (l Ledger) Markdown() string {
	var b strings.Builder
	b.WriteString("| id | section | quantity | paper | measured | range | status |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, c := range l {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s |\n",
			c.ID, c.Section, c.Quantity, c.Paper, sig3(c.Measured), c.Range, c.status())
	}
	return b.String()
}

func (l *Ledger) add(id, section, quantity string, paper, measured float64, t tol) *Claim {
	return l.addBand(id, section, quantity, Span{paper, paper}, measured, t(paper))
}

// addBand adds a row for a band the paper states, accepting r.
func (l *Ledger) addBand(id, section, quantity string, paper Span, measured float64, r Span) *Claim {
	*l = append(*l, Claim{ID: id, Section: section, Quantity: quantity,
		Paper: paper, Measured: measured, Range: r})
	return &(*l)[len(*l)-1]
}

// paperTable1 is the paper's Table 1: seconds per kernel at 6,144
// processes on one Xeon E5-2680v3 core, on the MPE alone, and under the
// OpenACC port. Athread appears in the paper only as a band (Figure 5).
var paperTable1 = map[string]struct{ intel, mpe, acc float64 }{
	"compute_and_apply_rhs": {12.69, 92.13, 75.11},
	"euler_step":            {15.88, 175.73, 10.18},
	"vertical_remap":        {11.38, 39.99, 16.17},
	"hypervis_dp1":          {4.95, 12.71, 3.13},
	"hypervis_dp2":          {3.81, 9.05, 1.32},
	"biharmonic_dp3d":       {9.35, 36.18, 4.43},
}

// deviations are the rows the model misses: today's measured value, to
// three figures, and why.
var deviations = []struct {
	id    string
	today float64
	why   string
}{
	{"table1.euler_step.mpe", 5.45, mpeOneRate},
	{"table1.hypervis_dp1.mpe", 5.45, mpeOneRate},
	{"table1.hypervis_dp2.mpe", 5.45, mpeOneRate},
	{"table1.vertical_remap.ath", 2.26, "the remap's column gathers are strided DMA against the level-major layout, so the modelled Athread remap stays bandwidth-bound"},
	{"fig5.ath_over_acc_peak", 104, "the peak is rhs, whose modelled OpenACC run carries the full O(nlev) scan redundancy at nlev=128"},
	{"table3.3km.ours", 10.7, t3km},
	{"table3.3km.fv3", 18.5, t3km},
	{"table3.3km.fv3_x", 1.73, t3km},
	{"table3.3km.mpas", 39.4, t3km},
	{"table3.3km.mpas_x", 3.68, t3km},
	{"fig6.ath_over_acc.max", 1.56, "at few processes the dycore dominates the step, and the fitted athread dycore coefficient's full gain shows"},
	{"fig7.ne256.pflops_131072", 0.320, oneE0},
	{"fig7.ne256.eff", 0.133, oneE0},
	{"fig7.ne1024.eff", 0.716, oneE0},
	{"fig8.full.eff", 0.941, "the paper's 650-element case scales better than its 768-element case; a model monotone in per-process load cannot"},
	{"overlap.saving", 0.149, "the modelled overlap hides halo time only behind inner-element compute, the same direction at a smaller magnitude"},
}

const (
	mpeOneRate = "the machine model has one MPE/Intel rate ratio for every kernel; the paper's ratios vary by kernel"
	t3km       = "ours < FV3 < MPAS and the widening gap hold, but the modelled 3 km run times and margins fall short of the paper's"
	oneE0      = "the paper's two panels imply different per-CG saturation constants; one CGFixedElems splits the difference, so ne256 lands low and ne1024 high"
)

// BuildLedger evaluates every claim. t1 is Table1 at its default
// configuration, passed in so a caller that also prints Table 1 runs the
// kernel simulation once.
func BuildLedger(t1 []KernelRow) Ledger {
	var l Ledger

	// Table 1 / Figure 5: per-kernel ratios against one Intel core.
	athBand := Span{7, 46}
	// MPE rows stay inside the 2-11x band asserted before the ledger.
	mpeTol := func(p float64) Span { return perKern(p).clip(2, 11) }
	peak := 0.0
	for _, r := range t1 {
		p := paperTable1[r.Name]
		id := "table1." + r.Name
		l.add(id+".mpe", "Table 1", "MPE/Intel time, "+r.Name, p.mpe/p.intel,
			r.MPE/r.Times[exec.Intel], mpeTol)
		acc := l.add(id+".acc", "Table 1", "Intel/OpenACC time, "+r.Name, p.intel/p.acc,
			r.Speedup(exec.Intel, exec.OpenACC), perKern)
		if r.Name == "euler_step" { // ACCMemEff is fitted here
			acc.cal().Range = rel(0.1)(acc.Paper.Lo)
		}
		l.addBand(id+".ath", "Fig 5", "Intel/Athread time, "+r.Name, athBand,
			r.Speedup(exec.Intel, exec.Athread), athBand)
		peak = math.Max(peak, r.Speedup(exec.OpenACC, exec.Athread))
	}
	l.add("fig5.ath_over_acc_peak", "Fig 5", "peak OpenACC/Athread time", 50, peak, perKern)

	// Table 2: element counts.
	for _, t := range []struct {
		ne    int
		elems float64
	}{{64, 24576}, {256, 393216}, {512, 1572864}, {1024, 6291456}, {2048, 25165824}, {4096, 100663296}} {
		l.add(fmt.Sprintf("table2.ne%d", t.ne), "Table 2", fmt.Sprintf("elements, ne%d", t.ne),
			t.elems, float64(DefaultHOMMEConfig(t.ne).NElems()), exact)
	}

	// Table 3: run times and the baselines' ratios to ours.
	paperT3 := [2][3]float64{{table3Anchor, 3.56, 7.56}, {14.379, 30.31, 64.80}}
	for i, c := range Table3() {
		res := [2]string{"12.5 km", "3 km"}[i]
		for k, r := range c.Rows {
			p := paperT3[i][k]
			row := l.add(r.ID, "Table 3", r.Name+" run time (s), "+res, p, r.RunTime, modelled)
			if k == 0 && i == 0 {
				row.cal().Range = anchored(p)
			}
			if k > 0 {
				q := p / paperT3[i][0]
				l.add(r.ID+"_x", "Table 3", r.Name+"/ours run time, "+res,
					q, r.RunTime/c.Rows[0].RunTime, modelled)
			}
		}
	}

	// Figure 6: whole-CAM SYPD, both anchors and the version ratio bands.
	c30, c120 := DefaultCAMConfig(30), DefaultCAMConfig(120)
	l.add("fig6.ne30.sypd", "Fig 6", "SYPD, ne30 athread @5400", 21.5,
		c30.SYPD(VersionAthread, 5400), rel(0.02)).cal()
	l.add("fig6.ne120.sypd", "Fig 6", "SYPD, ne120 openacc @28800", 3.4,
		c120.SYPD(VersionOpenACC, 28800), rel(0.02)).cal()
	ratios := func(hi, lo CAMVersion) (mn, mx float64) {
		mn = math.Inf(1)
		for _, np := range Fig6Ne30Procs {
			r := c30.SYPD(hi, np) / c30.SYPD(lo, np)
			mn, mx = math.Min(mn, r), math.Max(mx, r)
		}
		return mn, mx
	}
	for _, b := range []struct {
		id, name string
		hi, lo   CAMVersion
		paper    Span
	}{
		{"acc_over_ori", "openacc/ori", VersionOpenACC, VersionOri, Span{1.4, 1.5}},
		{"ath_over_acc", "athread/openacc", VersionAthread, VersionOpenACC, Span{1.1, 1.4}},
	} {
		mn, mx := ratios(b.hi, b.lo)
		l.addBand("fig6."+b.id+".min", "Fig 6", "SYPD "+b.name+", ne30 min", b.paper, mn, b.paper).cal()
		l.addBand("fig6."+b.id+".max", "Fig 6", "SYPD "+b.name+", ne30 max", b.paper, mx, b.paper).cal()
	}

	// Figure 7: strong-scaling endpoints and efficiency at 131,072.
	for _, s := range []struct {
		ne, base          int
		pfBase, pfTop, ef float64
	}{{256, 4096, 0.07, 0.64, 0.217}, {1024, 8192, 0.18, 1.76, 0.512}} {
		h := DefaultHOMMEConfig(s.ne)
		id := fmt.Sprintf("fig7.ne%d.", s.ne)
		l.add(id+fmt.Sprintf("pflops_%d", s.base), "Fig 7", fmt.Sprintf("PFlops, ne%d @%d", s.ne, s.base),
			s.pfBase, h.PFlops(s.base, true), modelled).cal()
		l.add(id+"pflops_131072", "Fig 7", fmt.Sprintf("PFlops, ne%d @131072", s.ne),
			s.pfTop, h.PFlops(131072, true), modelled).cal()
		l.add(id+"eff", "Fig 7", fmt.Sprintf("efficiency, ne%d @131072", s.ne),
			s.ef, h.Efficiency(131072, s.base, true), eff).cal()
	}

	// Figure 8: weak-scaling efficiencies and the full-machine point.
	for _, e := range []struct {
		elems int
		eff   float64
	}{{48, 0.883}, {192, 0.923}, {768, 0.922}} {
		l.add(fmt.Sprintf("fig8.eff%d", e.elems), "Fig 8", fmt.Sprintf("efficiency, %d elems/proc @131072", e.elems),
			e.eff, WeakEfficiency(e.elems, 131072, 512, 128, 4), eff).cal()
	}
	l.add("fig8.full.pflops", "Fig 8", "PFlops, 650 elems/proc @155000", 3.3,
		WeakScaling(650, 155000, 128, 4).PFlops, modelled).cal()
	l.add("fig8.full.eff", "Fig 8", "efficiency, 650 elems/proc @155000", 0.985,
		WeakEfficiency(650, 155000, 512, 128, 4), eff)

	// §7.6: the overlap's saving on ne1024 at 131,072 processes.
	h := DefaultHOMMEConfig(1024)
	tNo, _ := h.StepTime(131072, false)
	tOv, _ := h.StepTime(131072, true)
	l.add("overlap.saving", "§7.6", "overlap saving of HOMME step, ne1024 @131072", 0.23,
		(tNo-tOv)/tNo, modelled)

	// §5.1: the power model's Linpack anchor.
	l.add("power.linpack", "§5.1", "GFlops/W, Linpack on the full machine", linpackFlopsPerWatt/1e9,
		PowerEfficiency(linpackPFlops, TotalCGs), anchored).cal()

	// §2: the 750-m run is ne4096 on 155,000 processes.
	const ne4096, fullProcs = 4096, 155000
	l.add("750m.elems_per_proc", "§2", "ne4096 elements per process @155000", 650,
		float64(DefaultHOMMEConfig(ne4096).NElems())/fullProcs, rel(0.005))
	l.add("750m.spacing", "§2", "ne4096 grid spacing (m)", 750,
		1000*tc.GridSpacingKM(ne4096), rel(0.05))
	l.add("750m.cores", "§2", "cores @155000 processes", 10075000,
		fullProcs*CoresPerCG, exact)

	for _, d := range deviations {
		i := slices.IndexFunc(l, func(c Claim) bool { return c.ID == d.id })
		l[i].Range, l[i].Deviation = rel(pinTol)(d.today), d.why
	}
	return l
}
