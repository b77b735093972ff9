package main

import (
	"fmt"
	"math"
	osexec "os/exec"
	"runtime"
	"strings"
	"time"

	"swcam/internal/core"
	"swcam/internal/exec"
	"swcam/internal/perf"
)

// options are one pass's knobs.
type options struct {
	seed     int64
	seconds  float64 // length of the measured region
	traced   bool
	quick    bool
	traceDir string
}

// setups is how many cold builds a pass times, before and after its
// measured region: 7 in all for an untraced pass, in two groups a run
// apart so that one noisy spell cannot cover them all; the traced pass
// builds once, under spans.
func (o options) setups() (before, after int) {
	switch {
	case o.traced:
		return 1, 0
	case o.quick:
		return 1, 1
	}
	return 4, 3
}

func (o options) minReps() int {
	if o.quick {
		return 2
	}
	return 5
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metadata struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	HostCores  int    `json:"host_cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	FaultFree  bool   `json:"fault_free"`
	Quick      bool   `json:"quick,omitempty"`
}

// fullResult is what -json writes: the contract line plus quartiles,
// sample counts, hashes, failure reasons and metadata.
type fullResult struct {
	Workload string  `json:"workload"`
	Pass     string  `json:"pass"` // "untraced" or "traced"
	Seconds  float64 `json:"seconds"`
	Meta     metadata
	result
	Samples  map[string]summary   `json:"samples"`
	Series   map[string][]float64 `json:"series,omitempty"` // raw per-rep or per-segment samples
	Derived  map[string]float64   `json:"derived,omitempty"`
	Hash     string               `json:"state_hash"`
	Failures []string             `json:"failures,omitempty"`
}

func newFullResult(w workload, o options) *fullResult {
	pass := "untraced"
	if o.traced {
		pass = "traced"
	}
	return &fullResult{
		Workload: w.Name, Pass: pass, Seconds: o.seconds,
		Meta: metadata{
			Commit: gitCommit(), GoVersion: runtime.Version(), HostCores: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), Seed: o.seed, FaultFree: true, Quick: o.quick,
		},
		result:  result{Metrics: map[string]metric{}},
		Samples: map[string]summary{},
		Series:  map[string][]float64{},
		Derived: map[string]float64{},
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a repository
// (the driver's checkout is not one).
func gitCommit() string {
	out, err := osexec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (fr *fullResult) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			fr.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (fr *fullResult) verdict(v verdict) {
	fr.Attempted, fr.Failed = v.Attempted, v.Failed
	fr.Correct = v.Failed == 0 && v.Attempted > 0
	fr.Failures = v.Reasons
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(w workload, o options) (*fullResult, error) {
	if o.quick {
		w = w.quick()
	}
	if w.Serve {
		return runServe(w, o)
	}
	return runModel(w, o)
}

// stepSamples are the per-rep, per-step figures of a model workload.
type stepSamples struct {
	stepMs, cpuMs, allocs, allocKB []float64
}

func (s *stepSamples) add(d delta, steps int) {
	k := float64(steps)
	s.stepMs = append(s.stepMs, float64(d.WallNs)/1e6/k)
	s.cpuMs = append(s.cpuMs, float64(d.CPUNs)/1e6/k)
	s.allocs = append(s.allocs, float64(d.Mallocs)/k)
	s.allocKB = append(s.allocKB, float64(d.Bytes)/1024/k)
}

// emit writes set-up and the step view of the end-to-end metrics.
func (s *stepSamples) emit(fr *fullResult, setup []float64) {
	fr.set(endToEnd, "setup_s", low(setup))
	fr.set(endToEnd, "step_ms", low(s.stepMs))
	fr.set(endToEnd, "cpu_ms_per_step", low(s.cpuMs))
	fr.set(endToEnd, "allocs_per_step", median(s.allocs))
	fr.set(endToEnd, "alloc_kb_per_step", median(s.allocKB))
	fr.Samples["setup_s"] = summarize(setup)
	fr.Samples["step_ms"] = summarize(s.stepMs)
	fr.Samples["cpu_ms_per_step"] = summarize(s.cpuMs)
	fr.Samples["allocs_per_step"] = summarize(s.allocs)
	fr.Samples["alloc_kb_per_step"] = summarize(s.allocKB)
	fr.Series["step_ms"], fr.Series["cpu_ms_per_step"] = s.stepMs, s.cpuMs
}

// hostSYPD is simulated years per wall-clock day of the host program:
// dt*86.4/(365*step_ms).
func hostSYPD(dt, stepMs float64) float64 { return dt * 86.4 / (365 * stepMs) }

// repLoop is what the measured region of a model workload produced.
type repLoop struct {
	bare, traced stepSamples // per-step samples of bare and of traced reps
	obsv         observations
	last         repSample // the last rep that returned no error
	ok           bool      // whether there is one
	waitNs       int64     // halo receive waits summed over ranks, traced reps
	tracedNs     int64     // wall of the traced reps
}

// measureReps runs reps of fixed work until both minReps and the time
// budget are used. With a tracer every other rep runs under spans with
// the halo plans instrumented; the rest run bare and give the overhead.
func measureReps(m *modelRun, steps int, tr *tracer, budget time.Duration, minReps int, want uint64) repLoop {
	var l repLoop
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		var s repSample
		if tr != nil && i%2 == 0 {
			end := tr.begin(fmt.Sprintf("rep[%d]", i))
			m.instrumentHalo(true)
			s = m.rep(steps, tr)
			m.instrumentHalo(false)
			end()
			l.traced.add(s.d, steps)
			l.waitNs += s.stats.Halo.WaitNs
			l.tracedNs += s.d.WallNs
		} else {
			s = m.rep(steps, nil)
			l.bare.add(s.d, steps)
		}
		l.obsv.repErrs = append(l.obsv.repErrs, s.err)
		l.obsv.repHashes = append(l.obsv.repHashes, s.hash)
		l.obsv.repWant = append(l.obsv.repWant, want)
		if s.err == nil {
			l.last, l.ok = s, true
		}
	}
	return l
}

// waitFrac is the share of rank-time the traced reps spent blocked in
// halo receives.
func (l *repLoop) waitFrac(ranks int) float64 {
	if l.tracedNs == 0 {
		return 0
	}
	return float64(l.waitNs) / (float64(ranks) * float64(l.tracedNs))
}

// runModel is a pass of one of the five model workloads.
func runModel(w workload, o options) (*fullResult, error) {
	fr := newFullResult(w, o)
	sh := w.shape()
	var tr *tracer
	// The traced pass measures a third as long.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		tr = newTracer(w.Name)
		budget /= 3
	}
	endRoot := tr.begin(w.Name)
	before, after := o.setups()
	build := func() (*modelRun, error) { return buildModel(sh, o.seed, tr) }
	m, setup, err := coldBuilds(before, build, func(*modelRun) {})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}

	// The benchmark's own reference trajectory and the peer hash are not
	// set-up of the program under test.
	end := tr.begin("check.reference")
	ref, err := m.reference(w.StepsPerRep)
	if err != nil {
		return nil, err
	}
	peer, err := peerHash(sh, m, w.StepsPerRep)
	end()
	if err != nil {
		return nil, err
	}

	l := measureReps(m, w.StepsPerRep, tr, budget, o.minReps(), peer)

	_, more, err := coldBuilds(after, build, func(*modelRun) {})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	setup = append(setup, more...)

	end = tr.begin("check.gate")
	l.obsv.ref, l.obsv.mass0 = ref, m.solver.TotalMass(m.ic)
	if l.ok {
		l.obsv.got = m.job.Gather(m.local)
		l.obsv.mass = m.solver.TotalMass(l.obsv.got)
		fr.Derived["ref_max_rel_diff"] = math.Max(maxRelDiff(l.obsv.got.U, ref.U),
			math.Max(maxRelDiff(l.obsv.got.T, ref.T), maxRelDiff(l.obsv.got.DP, ref.DP)))
	}
	fr.verdict(gate(l.obsv))
	end()
	fr.Hash = fmt.Sprintf("%016x", l.last.hash)

	if !o.traced {
		l.bare.emit(fr, setup)
		// The request view of a model workload: one request is one Run
		// call of StepsPerRep steps, answered back to back.
		runMs := float64(w.StepsPerRep) * low(l.bare.stepMs)
		fr.set(endToEnd, "req_per_s", 1e3/runMs)
		fr.set(endToEnd, "latency_p50_ms", runMs)
		fr.Derived["host_sypd"] = hostSYPD(sh.cfg.Dt, low(l.bare.stepMs))
		fr.Derived["reps"] = float64(len(l.bare.stepMs))
		fr.Derived["model_ms_per_step"] = modelMsPerStep(l.last, w.StepsPerRep)
		endRoot()
		return fr, nil
	}
	if !l.ok {
		return nil, fmt.Errorf("%s: every rep failed: %v", w.Name, fr.Failures)
	}

	lc := newLayerCtx(w, sh, o, tr, fr)
	lc.fromRun(l, w.StepsPerRep)
	if err := lc.replayModelLayers(m); err != nil {
		return nil, err
	}
	// The serve layer has no part in a model workload; its metrics come
	// from a one-segment session on this workload's shape.
	mini := w.miniServe()
	if o.quick {
		mini = mini.quick()
	}
	tot, _, sobs, err := runSession(mini, o, 1, 0, 0, 1, tr)
	if err != nil {
		return nil, err
	}
	if sv := gate(sobs); sv.Failed > 0 {
		return nil, fmt.Errorf("%s: serve session on this shape: %v", w.Name, sv.Reasons)
	}
	lc.fromServe(tot)
	endRoot()
	if err := tr.flush(o.traceDir, fr.Metrics); err != nil {
		return nil, err
	}
	return fr, nil
}

// modelMsPerStep is the modelled SW26010/Xeon time of one step: the
// roofline of the rep's summed architectural events.
func modelMsPerStep(s repSample, steps int) float64 {
	return perf.KernelTime(s.stats.Cost) * 1e3 / float64(steps)
}

// peerHash runs an independent, unsupervised, physics-matched Intel job
// of the same configuration for the same steps and returns its state
// hash: the cross-backend, fault-free-supervision and fresh-instance
// identity every rep is held to.
func peerHash(sh shape, m *modelRun, steps int) (uint64, error) {
	psh := sh
	psh.backend, psh.supervised = exec.Intel, false
	job, _, err := newJob(psh)
	if err != nil {
		return 0, err
	}
	local := job.Scatter(m.ic)
	if _, err := job.RunChecked(local, steps); err != nil {
		return 0, fmt.Errorf("peer job: %w", err)
	}
	return core.StateFNV(job.Gather(local)), nil
}

// instrumentHalo turns the public halo.Plan instrumentation on or off;
// on, the exchanges time their receive waits into RunStats.Halo.WaitNs.
func (m *modelRun) instrumentHalo(on bool) {
	for _, p := range m.job.Plans {
		if on {
			p.Instrument(nil, haloReg)
		} else {
			p.Instrument(nil, nil)
		}
	}
}
