// Package scale is the measured scaling-campaign subsystem: it runs
// real goroutine-rank sweeps of the distributed driver over ne × ranks
// grids on one box, bills every configuration against a per-rank memory
// budget before launching it, attributes wall time to phases
// (dynamics kernels / halo exchange / collectives) from the unified
// observability counters, and calibrates the analytic machine model
// against the measured points to produce the paper's Fig. 10 /
// NGGPS-style SYPD-vs-resolution extrapolation table.
//
// The campaign measures the real runtime — partitioned mesh, per-rank
// engines, async halo exchange, recursive-doubling collectives — not a
// simulator; the only modeled step is the final extrapolation, whose
// coefficients come from least squares over the measured sweep
// (scale.Fit) rather than the spec-sheet constants internal/perf uses.
package scale

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/footprint"
	"swcam/internal/obs"
)

// Config shapes a campaign.
type Config struct {
	Backend exec.Backend
	Nlev    int
	Qsize   int
	Steps   int  // dynamics steps per measured point
	Overlap bool // run the §7.6 boundary-first exchange
	// BudgetBytes is the per-rank resident-memory budget (prognostic
	// state + pooled step scratch, accounted by internal/footprint). A
	// configuration whose busiest rank would exceed it is refused
	// before any allocation happens. Zero means no budget.
	BudgetBytes int64
	// WeakElemsPerRank is the weak-scaling curve's target local load;
	// WeakSweep picks ne for each rank count to hold it. Zero defaults
	// to 6.
	WeakElemsPerRank int
}

// Campaign runs measured sweeps under one Config.
type Campaign struct {
	Cfg Config
}

// Point is one measured configuration of a scaling sweep: a real
// goroutine-rank run at (Ne, Ranks) with its per-phase wall-time
// attribution and memory accounting.
type Point struct {
	Ne           int
	Ranks        int
	ElemsPerRank int // max local elements on any rank
	Steps        int
	WallNs       int64   // whole-run wall time
	DynNs        int64   // kernel time, summed over ranks
	HaloNs       int64   // DSS exchange time, summed over ranks
	CollNs       int64   // collective time, summed over ranks
	WireBytes    int64   // halo bytes crossing rank boundaries
	Msgs         int64   // point-to-point messages sent
	RankBytes    int64   // per-rank resident state footprint
	SYPD         float64 // simulated years per day at this point
	Flops        int64   // accounted kernel flops, whole run
	MemBytes     int64   // accounted kernel bytes, whole run
	PerStepNs    int64   // WallNs / Steps, the curve's y-axis
}

// ErrBudget reports a configuration refused by the memory budget.
type ErrBudget struct {
	Ne, Ranks    int
	ElemsPerRank int
	NeedBytes    int64
	BudgetBytes  int64
}

func (e *ErrBudget) Error() string {
	return fmt.Sprintf("scale: ne=%d ranks=%d needs %d bytes/rank (%d elems), budget %d",
		e.Ne, e.Ranks, e.NeedBytes, e.ElemsPerRank, e.BudgetBytes)
}

// dycoreCfg builds the solver config for one sweep point.
func (c *Campaign) dycoreCfg(ne int) dycore.Config {
	cfg := dycore.DefaultConfig(ne)
	if c.Cfg.Nlev > 0 {
		cfg.Nlev = c.Cfg.Nlev
	}
	if c.Cfg.Qsize > 0 {
		cfg.Qsize = c.Cfg.Qsize
	}
	return cfg
}

// CheckBudget bills (ne, ranks) against the per-rank budget without
// running anything: the busiest rank holds ceil(elems/ranks) elements.
func (c *Campaign) CheckBudget(ne, ranks int) error {
	cfg := c.dycoreCfg(ne)
	elems := 6 * ne * ne
	epr := (elems + ranks - 1) / ranks
	if c.Cfg.BudgetBytes <= 0 {
		return nil
	}
	need := int64(footprint.RankState(cfg.Np, cfg.Nlev, cfg.Qsize, epr).Total())
	if need > c.Cfg.BudgetBytes {
		return &ErrBudget{Ne: ne, Ranks: ranks, ElemsPerRank: epr,
			NeedBytes: need, BudgetBytes: c.Cfg.BudgetBytes}
	}
	return nil
}

// RunPoint measures one (ne, ranks) configuration: a real distributed
// run of Cfg.Steps dynamics steps, instrumented, returning the
// scaling point with its per-phase attribution. The per-rank budget is
// enforced before the job is built.
func (c *Campaign) RunPoint(ne, ranks int) (Point, error) {
	var pt Point
	cfg := c.dycoreCfg(ne)
	elems := 6 * ne * ne
	if ranks > elems {
		return pt, fmt.Errorf("scale: ne=%d has %d elements for %d ranks", ne, elems, ranks)
	}
	if err := c.CheckBudget(ne, ranks); err != nil {
		return pt, err
	}
	steps := c.Cfg.Steps
	if steps < 1 {
		steps = 1
	}

	job, err := core.NewParallelJob(cfg, c.Cfg.Backend, c.Cfg.Overlap, ranks)
	if err != nil {
		return pt, err
	}
	// Run the blowup watchdog every step: its allreduce is the
	// collective the campaign's "coll" phase bucket measures, and
	// production supervised runs step with it on.
	job.CheckEvery = 1
	probe := obs.NewProbe()
	job.Instrument(probe)

	s, err := dycore.NewSolver(cfg)
	if err != nil {
		return pt, err
	}
	global := s.NewState()
	s.InitBaroclinicWave(global)
	for q := 0; q < cfg.Qsize; q++ {
		s.InitCosineBellTracer(global, q, math.Pi*float64(q+1)/2, 0.3, 0.6)
	}
	local := job.Scatter(global)

	t0 := time.Now()
	stats, err := job.RunChecked(local, steps)
	wall := time.Since(t0)
	if err != nil {
		return pt, fmt.Errorf("scale: ne=%d ranks=%d: %w", ne, ranks, err)
	}

	var dynNs int64
	for _, ks := range probe.K().Stats() {
		dynNs += ks.Ns
	}
	epr := 0
	for r := 0; r < ranks; r++ {
		if n := job.Plans[r].NLocal(); n > epr {
			epr = n
		}
	}
	reg := probe.R()
	pt = Point{
		Ne:           ne,
		Ranks:        ranks,
		ElemsPerRank: epr,
		Steps:        steps,
		WallNs:       wall.Nanoseconds(),
		PerStepNs:    wall.Nanoseconds() / int64(steps),
		DynNs:        dynNs,
		HaloNs:       reg.CounterValue("halo.ns"),
		CollNs:       reg.CounterValue("mpirt.coll.ns"),
		WireBytes:    stats.Halo.WireBytes,
		Msgs:         stats.Halo.Msgs,
		RankBytes:    int64(footprint.RankState(cfg.Np, cfg.Nlev, cfg.Qsize, epr).Total()),
		SYPD:         obs.SYPD(float64(steps)*cfg.Dt, wall.Seconds()),
		Flops:        stats.Cost.Flops(),
		MemBytes:     stats.Cost.MemBytes,
	}
	return pt, nil
}

// StrongSweep holds ne fixed and scales the rank count — the strong-
// scaling curve. Rank counts exceeding the element count or the memory
// budget are skipped (reported via the skip callback when non-nil).
func (c *Campaign) StrongSweep(ne int, ranks []int, skip func(ranks int, why error)) ([]Point, error) {
	var out []Point
	for _, r := range ranks {
		pt, err := c.RunPoint(ne, r)
		if err != nil {
			var be *ErrBudget
			if errors.As(err, &be) || r > 6*ne*ne {
				if skip != nil {
					skip(r, err)
				}
				continue
			}
			return out, err
		}
		out = append(out, pt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scale: strong sweep at ne=%d measured no points", ne)
	}
	return out, nil
}

// WeakSweep holds the per-rank load near WeakElemsPerRank and scales
// ranks, picking for each rank count the ne whose cube-sphere comes
// closest to ranks × target elements. Duplicate (ne, ranks) pairs after
// rounding are dropped.
func (c *Campaign) WeakSweep(ranks []int, skip func(ranks int, why error)) ([]Point, error) {
	target := c.Cfg.WeakElemsPerRank
	if target < 1 {
		target = 6
	}
	type key struct{ ne, ranks int }
	seen := make(map[key]bool)
	var out []Point
	for _, r := range ranks {
		// 6·ne² ≈ r·target
		ne := int(math.Round(math.Sqrt(float64(r*target) / 6)))
		if ne < 2 {
			ne = 2
		}
		for r > 6*ne*ne {
			ne++ // every rank needs at least one element
		}
		k := key{ne, r}
		if seen[k] {
			continue
		}
		seen[k] = true
		pt, err := c.RunPoint(ne, r)
		if err != nil {
			var be *ErrBudget
			if errors.As(err, &be) {
				if skip != nil {
					skip(r, err)
				}
				continue
			}
			return out, err
		}
		out = append(out, pt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scale: weak sweep measured no points")
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Ranks < out[b].Ranks })
	return out, nil
}
