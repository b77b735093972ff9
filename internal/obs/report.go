package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// KernelTable accumulates per-(kernel, backend) wall time and
// architectural events — the per-kernel attribution behind Table 1 and
// Figure 5. It is goroutine-safe (many ranks record concurrently) and
// nil-safe (a nil table discards records).
type KernelTable struct {
	mu sync.Mutex
	m  map[kernelKey]*KernelStat
}

type kernelKey struct{ Kernel, Backend string }

// KernelStat is the accumulated record of one (kernel, backend) pair.
type KernelStat struct {
	Kernel  string `json:"kernel"`
	Backend string `json:"backend"`
	Calls   int64  `json:"calls"`
	Ns      int64  `json:"ns"`       // wall time across all calls and ranks
	Flops   int64  `json:"flops"`    // architectural double-precision ops
	Bytes   int64  `json:"bytes"`    // main-memory traffic
	DMAOps  int64  `json:"dma_ops"`  // discrete DMA transfers
	RegMsgs int64  `json:"reg_msgs"` // register-communication messages
}

// NewKernelTable returns an empty table.
func NewKernelTable() *KernelTable {
	return &KernelTable{m: make(map[kernelKey]*KernelStat)}
}

// Record accumulates one kernel invocation.
func (t *KernelTable) Record(kernel, backend string, ns, flops, bytes, dmaOps, regMsgs int64) {
	if t == nil {
		return
	}
	k := kernelKey{kernel, backend}
	t.mu.Lock()
	s, ok := t.m[k]
	if !ok {
		s = &KernelStat{Kernel: kernel, Backend: backend}
		t.m[k] = s
	}
	s.Calls++
	s.Ns += ns
	s.Flops += flops
	s.Bytes += bytes
	s.DMAOps += dmaOps
	s.RegMsgs += regMsgs
	t.mu.Unlock()
}

// Stats returns every record sorted by descending wall time, then name.
func (t *KernelTable) Stats() []KernelStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]KernelStat, 0, len(t.m))
	for _, s := range t.m {
		out = append(out, *s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ns != out[j].Ns {
			return out[i].Ns > out[j].Ns
		}
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}

// KernelShare is one StepReport line: a kernel's share of the total
// instrumented kernel time.
type KernelShare struct {
	KernelStat
	TimeShare float64 `json:"time_share"` // fraction of total kernel ns
}

// StepReport summarizes one run: per-kernel time shares, the achieved
// simulation rate, the counted floating-point rate, and how much of the
// halo communication was hidden behind computation.
type StepReport struct {
	Steps       int     `json:"steps"`
	SimSeconds  float64 `json:"sim_seconds"`  // simulated time advanced
	WallSeconds float64 `json:"wall_seconds"` // host wall-clock spent
	SYPD        float64 `json:"sypd"`         // simulated years per wall day
	PFlops      float64 `json:"pflops"`       // counted flops / wall (host rate)
	// OverlapRatio is the fraction of halo-exchange wall time not spent
	// blocked waiting for messages: 1 means communication fully hidden
	// behind computation (the §7.6 goal), 0 means fully exposed. Only
	// meaningful when OverlapMeasured is true; otherwise it is 0 and the
	// text report prints "n/a".
	OverlapRatio float64 `json:"overlap_ratio"`
	// OverlapMeasured is true when the redesigned exchange actually ran
	// with a real inner-compute window at least once (the
	// halo.overlap.windows counter fired). Runs using the original
	// blocking exchange — where there is no pipeline to quantify — leave
	// it false.
	OverlapMeasured bool             `json:"overlap_measured"`
	Kernels         []KernelShare    `json:"kernels"`
	Recovery        *RecoverySummary `json:"recovery,omitempty"`
}

// RecoverySummary is the run's resilience activity, assembled from the
// registry counters the recovery ladder maintains (core.recovery.* and
// mpirt.retx.*). Nil when the run saw no recovery activity at all —
// fault-free runs keep their reports unchanged.
type RecoverySummary struct {
	Retransmits    int64 `json:"retransmits"`      // mpirt.retx.attempts
	Retransmitted  int64 `json:"retransmitted"`    // mpirt.retx.recovered
	Checkpoints    int64 `json:"checkpoints"`      // core.recovery.checkpoints
	Localized      int64 `json:"localized"`        // core.recovery.localized
	Respawns       int64 `json:"respawns"`         // core.recovery.respawns
	Shrinks        int64 `json:"shrinks"`          // core.recovery.shrinks
	Rollbacks      int64 `json:"rollbacks"`        // core.recovery.rollbacks
	ReplayedSteps  int64 `json:"replayed_steps"`   // core.recovery.replayed_steps
	RecoveryWallNs int64 `json:"recovery_wall_ns"` // core.recovery.ns
}

// ReportInput carries what BuildStepReport needs beyond the kernel table.
type ReportInput struct {
	Steps       int
	SimSeconds  float64
	WallSeconds float64
	// HaloNs / HaloWaitNs come from the registry counters halo.ns and
	// halo.wait.ns; zero HaloNs yields OverlapRatio 0.
	HaloNs     int64
	HaloWaitNs int64
	// OverlapWindows comes from the halo.overlap.windows counter: the
	// number of exchanges that ran a real inner-compute window. Zero
	// marks the overlap ratio as not measured.
	OverlapWindows int64
}

// SYPD converts simulated seconds over wall seconds into simulated
// years per wall-clock day; guards against zero/NaN wall time.
func SYPD(simSeconds, wallSeconds float64) float64 {
	if wallSeconds <= 0 || math.IsNaN(wallSeconds) || math.IsInf(wallSeconds, 0) {
		return 0
	}
	simYears := simSeconds / (365 * 86400)
	wallDays := wallSeconds / 86400
	return simYears / wallDays
}

// BuildStepReport aggregates a kernel table and run totals into a report.
func BuildStepReport(kt *KernelTable, reg *Registry, in ReportInput) StepReport {
	rep := StepReport{
		Steps:       in.Steps,
		SimSeconds:  in.SimSeconds,
		WallSeconds: in.WallSeconds,
		SYPD:        SYPD(in.SimSeconds, in.WallSeconds),
	}
	haloNs, waitNs, windows := in.HaloNs, in.HaloWaitNs, in.OverlapWindows
	if reg != nil {
		if v := reg.CounterValue("halo.ns"); v > 0 {
			haloNs = v
		}
		if v := reg.CounterValue("halo.wait.ns"); v > 0 {
			waitNs = v
		}
		if v := reg.CounterValue("halo.overlap.windows"); v > 0 {
			windows = v
		}
		rec := RecoverySummary{
			Retransmits:    reg.CounterValue("mpirt.retx.attempts"),
			Retransmitted:  reg.CounterValue("mpirt.retx.recovered"),
			Checkpoints:    reg.CounterValue("core.recovery.checkpoints"),
			Localized:      reg.CounterValue("core.recovery.localized"),
			Respawns:       reg.CounterValue("core.recovery.respawns"),
			Shrinks:        reg.CounterValue("core.recovery.shrinks"),
			Rollbacks:      reg.CounterValue("core.recovery.rollbacks"),
			ReplayedSteps:  reg.CounterValue("core.recovery.replayed_steps"),
			RecoveryWallNs: reg.CounterValue("core.recovery.ns"),
		}
		if rec != (RecoverySummary{}) {
			rep.Recovery = &rec
		}
	}
	// The ratio only quantifies a pipeline that exists: require at least
	// one exchange to have run a real inner-compute window.
	if windows > 0 && haloNs > 0 {
		rep.OverlapMeasured = true
		r := 1 - float64(waitNs)/float64(haloNs)
		if r < 0 {
			r = 0
		}
		rep.OverlapRatio = r
	}
	stats := kt.Stats()
	var totalNs, totalFlops int64
	for _, s := range stats {
		totalNs += s.Ns
		totalFlops += s.Flops
	}
	if in.WallSeconds > 0 {
		rep.PFlops = float64(totalFlops) / in.WallSeconds / 1e15
	}
	for _, s := range stats {
		ks := KernelShare{KernelStat: s}
		if totalNs > 0 {
			ks.TimeShare = float64(s.Ns) / float64(totalNs)
		}
		rep.Kernels = append(rep.Kernels, ks)
	}
	return rep
}

// Text renders the report as an aligned human-readable table.
func (r StepReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== step report: %d steps, %.1f sim s in %.3f wall s ==\n",
		r.Steps, r.SimSeconds, r.WallSeconds)
	overlap := "n/a"
	if r.OverlapMeasured {
		overlap = fmt.Sprintf("%.0f%%", 100*r.OverlapRatio)
	}
	fmt.Fprintf(&b, "  SYPD %.3f   counted PFlops %.3e   comm overlap %s\n",
		r.SYPD, r.PFlops, overlap)
	if rec := r.Recovery; rec != nil {
		fmt.Fprintf(&b, "  recovery: %d/%d retransmits recovered, %d ckpt, %d localized, %d respawn, %d shrink, %d rollback, %d steps replayed, %.3f ms\n",
			rec.Retransmitted, rec.Retransmits, rec.Checkpoints, rec.Localized,
			rec.Respawns, rec.Shrinks, rec.Rollbacks, rec.ReplayedSteps,
			float64(rec.RecoveryWallNs)/1e6)
	}
	if len(r.Kernels) > 0 {
		fmt.Fprintf(&b, "  %-26s %-8s %6s %12s %7s %14s %14s\n",
			"kernel", "backend", "calls", "ns", "share", "flops", "bytes")
		for _, k := range r.Kernels {
			fmt.Fprintf(&b, "  %-26s %-8s %6d %12d %6.1f%% %14d %14d\n",
				k.Kernel, k.Backend, k.Calls, k.Ns, 100*k.TimeShare, k.Flops, k.Bytes)
		}
	}
	return b.String()
}
