// Package serve is the ensemble-as-a-service layer: a resident forecast
// server that integrates N perturbed-initial-condition ensemble members
// continuously on the resilient runtime and answers field-slice, point-
// forecast, ensemble-statistics, and TC-track queries from versioned
// snapshots — degrading gracefully through member failures instead of
// dying. See DESIGN.md §12.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
	"swcam/internal/tc"
)

// MemberState is one ensemble member's supervision state.
type MemberState int32

const (
	// MemberStarting: built but no snapshot published yet.
	MemberStarting MemberState = iota
	// MemberRunning: integrating and publishing on cadence.
	MemberRunning
	// MemberRecovering: crashed; the supervisor is backing off and will
	// restart it from its last good snapshot. Its slot keeps serving
	// that snapshot, marked stale.
	MemberRecovering
	// MemberQuarantined: failed QuarantineAfter consecutive restarts;
	// the supervisor has given up on it. Its last snapshot stays
	// servable (stale) and ensemble queries exclude it.
	MemberQuarantined
	// MemberStopped: drained cleanly.
	MemberStopped
	// MemberCompleted: integrated out to the configured forecast
	// horizon (MaxCycles) and stopped there by design. Its final
	// snapshot keeps serving — a completed forecast is a product, not
	// a degradation, so it is not marked stale by state.
	MemberCompleted
)

func (s MemberState) String() string {
	switch s {
	case MemberStarting:
		return "starting"
	case MemberRunning:
		return "running"
	case MemberRecovering:
		return "recovering"
	case MemberQuarantined:
		return "quarantined"
	case MemberStopped:
		return "stopped"
	case MemberCompleted:
		return "completed"
	}
	return fmt.Sprintf("MemberState(%d)", int32(s))
}

// Config describes the supervised ensemble.
type Config struct {
	Members int           // ensemble size (>= 1)
	Dycore  dycore.Config // per-member model configuration
	Backend exec.Backend
	Ranks   int // simulated core groups per member
	// CycleSteps is the number of dynamics steps between snapshot
	// publishes (default 2). A member crash loses at most one cycle.
	CycleSteps int
	// MaxCycles is the forecast horizon: a member that completes this
	// many cycles stops integrating (state "completed") and serves its
	// final snapshot from then on. 0 means integrate forever — note
	// that at toy resolutions the dycore eventually goes unstable on a
	// long enough free run, at which point members crash into
	// quarantine and serve their last pre-blowup snapshot stale; a
	// bounded horizon is how real forecast systems avoid asking that
	// question in the first place.
	MaxCycles  int
	DynWorkers int // intra-rank workers per rank engine (0 = serial)

	// IC selects the shared base initial condition: "vortex" (the
	// Katrina-like warm-core cyclone; enables meaningful TC-track
	// queries) or "barowave". Default "vortex".
	IC string
	// PerturbAmp is the member-IC temperature-perturbation amplitude in
	// kelvin (default 0.01). Member 0 is the unperturbed control.
	PerturbAmp float64
	// Seed drives every deterministic choice: member perturbations,
	// restart jitter, injected kills.
	Seed int64

	// Recovery selects the intra-member supervision mode for transport
	// faults: "ladder" (default) or "global" (see core.ResilientJob).
	Recovery   string
	MaxRetries int    // intra-member retry budget per cycle (default 10)
	Spares     int    // spare ranks for ladder respawn
	Faults     string // mpirt fault spec injected inside each member's world

	// Kills is the supervisor-level fault schedule: injected member
	// crashes ("process death" of a whole member), parsed from specs
	// like "1@3,0@5" (member 1 dies entering its cycle 3, ...). Each
	// kill fires once.
	Kills KillPlan

	// RestartBackoff is the sleep before the first restart of a crashed
	// member, doubling per consecutive failure up to MaxBackoff, with
	// seeded jitter (defaults 50ms / 2s).
	RestartBackoff time.Duration
	MaxBackoff     time.Duration
	// QuarantineAfter is the number of consecutive crashes after which
	// a member is quarantined instead of restarted (default 5).
	QuarantineAfter int

	// StaleAfter additionally marks responses stale when the snapshot
	// is older than this wall-clock age (0 = staleness is state-based
	// only: recovering/quarantined members serve stale).
	StaleAfter time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Members < 1 {
		out.Members = 1
	}
	if out.Ranks < 1 {
		out.Ranks = 1
	}
	if out.CycleSteps < 1 {
		out.CycleSteps = 2
	}
	if out.IC == "" {
		out.IC = "vortex"
	}
	if out.PerturbAmp == 0 {
		out.PerturbAmp = 0.01
	}
	if out.Recovery == "" {
		out.Recovery = "ladder"
	}
	if out.MaxRetries < 1 {
		out.MaxRetries = 10
	}
	if out.RestartBackoff <= 0 {
		out.RestartBackoff = 50 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 2 * time.Second
	}
	if out.QuarantineAfter < 1 {
		out.QuarantineAfter = 5
	}
	return out
}

// KillPlan schedules injected member crashes: member index -> cycle
// indices at which the member dies instead of integrating. Each entry
// fires exactly once (a restarted member re-runs the killed cycle); a
// cycle listed k times kills the member k consecutive times there —
// the way to drive a member into quarantine.
type KillPlan map[int][]int

// ParseKillPlan parses "M@C,M@C,..." (member M dies entering cycle C).
// An empty spec yields a nil plan.
func ParseKillPlan(spec string) (KillPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := KillPlan{}
	for _, part := range strings.Split(spec, ",") {
		m, c, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("serve: kill spec %q: want member@cycle", part)
		}
		mi, err1 := strconv.Atoi(m)
		ci, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil || mi < 0 || ci < 0 {
			return nil, fmt.Errorf("serve: kill spec %q: want nonnegative member@cycle", part)
		}
		plan[mi] = append(plan[mi], ci)
	}
	for m := range plan {
		sort.Ints(plan[m])
	}
	return plan, nil
}

// errInjectedKill marks a supervisor-level injected member crash.
var errInjectedKill = errors.New("serve: injected member kill")

// Member is one supervised ensemble member: a ResilientJob integrating
// a perturbed-IC copy of the model, publishing a snapshot per cycle.
type Member struct {
	idx int
	sup *Supervisor
	cfg Config

	job   *core.ParallelJob
	rj    *core.ResilientJob
	local []*dycore.State
	base  *dycore.State // the member's perturbed IC (immutable)
	// global is the state every publish gathers into, kept across
	// rebuilds: the global shape never changes, even when a shrink
	// changes the rank count.
	global *dycore.State

	cycle    int         // completed cycles (monotone across restarts)
	kills    map[int]int // cycle -> remaining injected crashes there
	jitter   *rand.Rand
	state    atomic.Int32
	stateG   *obs.Gauge   // serve.member.<idx>.state (nil = uncounted)
	restarts atomic.Int64 // restarts performed so far

	mu      sync.Mutex
	lastErr string
}

// newMember builds member idx from scratch: base IC (shared init +
// seeded perturbation; member 0 is the unperturbed control) and a fresh
// job/supervisor pair.
func newMember(idx int, sup *Supervisor, cfg Config) (*Member, error) {
	s, err := dycore.NewSolver(cfg.Dycore)
	if err != nil {
		return nil, err
	}
	g := s.NewState()
	switch cfg.IC {
	case "vortex":
		s.InitRest(g, 288)
		tc.KatrinaLikeVortex().Install(s, g)
	case "barowave":
		s.InitBaroclinicWave(g)
	default:
		return nil, fmt.Errorf("serve: unknown IC %q (vortex|barowave)", cfg.IC)
	}
	if idx > 0 {
		core.PerturbInitial(g, cfg.Seed+int64(idx), cfg.PerturbAmp)
	}
	kills := map[int]int{}
	for _, c := range cfg.Kills[idx] {
		kills[c]++
	}
	m := &Member{
		idx: idx, sup: sup, cfg: cfg, base: g, global: s.NewState(),
		kills:  kills,
		jitter: rand.New(rand.NewSource(cfg.Seed ^ int64(0x5eed<<8) ^ int64(idx))),
		stateG: sup.reg().Gauge(fmt.Sprintf("serve.member.%d.state", idx)),
	}
	if err := m.build(nil, 0); err != nil {
		return nil, err
	}
	m.setState(MemberStarting)
	return m, nil
}

// build constructs a fresh job world (a "respawned member process") and
// seats it at the given state: from a decoded snapshot, or from the
// member's base IC when from is nil.
func (m *Member) build(from *dycore.State, step int) error {
	job, err := core.NewParallelJob(m.cfg.Dycore, m.cfg.Backend, true, m.cfg.Ranks)
	if err != nil {
		return err
	}
	if m.cfg.DynWorkers != 0 {
		job.SetDynWorkers(m.cfg.DynWorkers)
	}
	if m.sup.probe != nil {
		job.Instrument(m.sup.probe)
	}
	if m.cfg.Faults != "" {
		// Fresh plan per member lifetime, seeded by the shared spec: a
		// respawned process faces the same fault environment.
		plan, perr := mpirt.ParseFaultPlan(m.cfg.Faults, m.cfg.Ranks, int64(m.cfg.CycleSteps)*400)
		if perr != nil {
			return perr
		}
		job.Faults = plan
		job.RecvTimeout = 2 * time.Second
		job.CheckEvery = 1
	}
	rj := core.NewResilientJob(job)
	rj.CheckpointEvery = m.cfg.CycleSteps
	rj.MaxRetries = m.cfg.MaxRetries
	rj.Spares = m.cfg.Spares
	if m.cfg.Recovery == "global" {
		rj.Mode = core.ModeGlobal
	} else {
		rj.Mode = core.ModeLadder
	}
	src := m.base
	if from != nil {
		src = from
	}
	job.SetStepCount(step)
	m.job = job
	m.rj = rj
	m.local = job.Scatter(src)
	return nil
}

// atHorizon reports whether the member has integrated out to the
// configured forecast horizon.
func (m *Member) atHorizon() bool {
	return m.cfg.MaxCycles > 0 && m.cycle >= m.cfg.MaxCycles
}

// shouldKill reports (and consumes) a scheduled injected crash for the
// cycle the member is about to run.
func (m *Member) shouldKill(cycle int) bool {
	if m.kills[cycle] > 0 {
		m.kills[cycle]--
		return true
	}
	return false
}

// cycleOnce advances one cycle and publishes the resulting snapshot.
func (m *Member) cycleOnce() error {
	if m.shouldKill(m.cycle) {
		return fmt.Errorf("%w: member %d at cycle %d", errInjectedKill, m.idx, m.cycle)
	}
	_, err := m.rj.Run(m.local, m.cfg.CycleSteps)
	m.local = m.rj.States() // a shrink recovery replaces the slice
	if err != nil {
		return err
	}
	m.job.GatherInto(m.global, m.local)
	step := m.job.StepCount()
	simHours := float64(step) * m.cfg.Dycore.Dt / 3600
	if err := m.sup.store.Publish(m.idx, step, simHours, m.global); err != nil {
		return err
	}
	m.cycle++
	return nil
}

// rebuild restarts a crashed member: a fresh world seated at the last
// good published snapshot (or the base IC if none exists yet). Because
// the dycore is deterministic and the snapshot codec is bit-exact, the
// restarted member rejoins its own trajectory bit-for-bit.
func (m *Member) rebuild() error {
	st, meta, err := m.sup.store.Read(m.idx)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return m.build(nil, 0)
		}
		return err
	}
	// The cached state is shared read-only with the request path; build
	// scatters (copies) out of it, never mutates it.
	return m.build(st, meta.Step)
}

func (m *Member) setState(st MemberState) {
	m.state.Store(int32(st))
	m.stateG.Set(float64(st))
}

// Index returns the member's ensemble index.
func (m *Member) Index() int { return m.idx }

// State returns the member's current supervision state.
func (m *Member) State() MemberState { return MemberState(m.state.Load()) }

// Restarts returns how many times the supervisor has restarted the
// member so far.
func (m *Member) Restarts() int64 { return m.restarts.Load() }

func (m *Member) recordErr(err error) {
	m.mu.Lock()
	m.lastErr = err.Error()
	m.mu.Unlock()
}

// LastError returns the most recent crash cause ("" if none).
func (m *Member) LastError() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// loop is the member's supervision loop: integrate and publish until
// stopped, restarting on crashes with exponential backoff plus seeded
// jitter, quarantining after QuarantineAfter consecutive failures.
func (m *Member) loop(stop <-chan struct{}) {
	defer m.sup.wg.Done()
	backoff := m.cfg.RestartBackoff
	consecutive := 0
	for {
		select {
		case <-stop:
			m.setState(MemberStopped)
			return
		default:
		}
		if m.atHorizon() {
			m.setState(MemberCompleted)
			return
		}
		err := m.cycleOnce()
		if err == nil {
			m.setState(MemberRunning)
			consecutive = 0
			backoff = m.cfg.RestartBackoff
			continue
		}
		m.recordErr(err)
		consecutive++
		m.sup.reg().Counter("serve.member.crashes").Add(1)
		if consecutive > m.cfg.QuarantineAfter {
			m.setState(MemberQuarantined)
			m.sup.reg().Counter("serve.member.quarantines").Add(1)
			return
		}
		m.setState(MemberRecovering)
		// Exponential backoff with up to 50% seeded jitter: restarts of
		// independently crashed members de-synchronize instead of
		// stampeding the host together.
		d := backoff + time.Duration(m.jitter.Int63n(int64(backoff)/2+1))
		select {
		case <-stop:
			m.setState(MemberStopped)
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > m.cfg.MaxBackoff {
			backoff = m.cfg.MaxBackoff
		}
		if rerr := m.rebuild(); rerr != nil {
			// The snapshot store itself failed us; count the attempt and
			// let the loop escalate toward quarantine.
			m.recordErr(rerr)
			continue
		}
		m.restarts.Add(1)
		m.sup.reg().Counter("serve.member.restarts").Add(1)
	}
}

// Supervisor owns the ensemble: N members, their snapshot store, and
// the restart ladder above them.
type Supervisor struct {
	cfg     Config
	store   *Store
	members []*Member
	solver  *dycore.Solver // shared read-only mesh/config for the request path
	probe   *obs.Probe

	wg      sync.WaitGroup
	stop    chan struct{}
	started bool
}

// NewSupervisor builds the ensemble (ICs, jobs, store) without starting
// any integration.
func NewSupervisor(cfg Config, probe *obs.Probe) (*Supervisor, error) {
	c := cfg.withDefaults()
	if err := c.Dycore.Validate(); err != nil {
		return nil, err
	}
	switch c.Recovery {
	case "ladder", "global":
	default:
		return nil, fmt.Errorf("serve: unknown recovery mode %q (ladder|global)", c.Recovery)
	}
	solver, err := dycore.NewSolver(c.Dycore)
	if err != nil {
		return nil, err
	}
	sup := &Supervisor{
		cfg:    c,
		solver: solver,
		probe:  probe,
		stop:   make(chan struct{}),
	}
	sup.store = NewStore(c.Members, sup.reg())
	for i := 0; i < c.Members; i++ {
		m, err := newMember(i, sup, c)
		if err != nil {
			return nil, fmt.Errorf("serve: building member %d: %w", i, err)
		}
		sup.members = append(sup.members, m)
	}
	return sup, nil
}

func (s *Supervisor) reg() *obs.Registry {
	if s.probe == nil {
		return nil
	}
	return s.probe.Reg
}

// Store returns the ensemble's snapshot store.
func (s *Supervisor) Store() *Store { return s.store }

// Members returns the supervised members.
func (s *Supervisor) Members() []*Member { return s.members }

// Start launches every member's supervision loop.
func (s *Supervisor) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, m := range s.members {
		s.wg.Add(1)
		go m.loop(s.stop)
	}
}

// Stop drains the ensemble: each member finishes its current cycle
// (publishing its snapshot) and exits. Idempotent.
func (s *Supervisor) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
}

// RunCycles advances every member n cycles synchronously — the
// deterministic test path (no goroutines, no backoff; a crash is
// returned, not supervised).
func (s *Supervisor) RunCycles(n int) error {
	for c := 0; c < n; c++ {
		for _, m := range s.members {
			switch m.State() {
			case MemberQuarantined, MemberStopped, MemberCompleted:
				continue
			}
			if m.atHorizon() {
				m.setState(MemberCompleted)
				continue
			}
			if err := m.cycleOnce(); err != nil {
				return fmt.Errorf("serve: member %d cycle: %w", m.idx, err)
			}
			m.setState(MemberRunning)
		}
	}
	return nil
}

// Checkpoint writes each member's latest snapshot to dir as
// member_<i>.ckpt (v2 checkpoint files) — the drain path's durable
// hand-off. Members without a snapshot are skipped.
func (s *Supervisor) Checkpoint(dir string) error {
	for i := range s.members {
		st, meta, err := s.store.Read(i)
		if err != nil {
			if errors.Is(err, ErrNoSnapshot) {
				continue
			}
			return err
		}
		path := fmt.Sprintf("%s/member_%d.ckpt", dir, i)
		if err := core.SaveCheckpoint(path, st, meta.Step); err != nil {
			return err
		}
	}
	return nil
}
