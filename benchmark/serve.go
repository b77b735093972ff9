package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/serve"
	"swcam/internal/tc"
)

// genConns is the harness's connection and client-goroutine limit.
const genConns = 2

// spinWindow is how long before a request's due time the open-loop
// pacer stops sleeping and spins, so generator lateness stays far below
// the median latency.
const spinWindow = 200 * time.Microsecond

// perturbAmp is the member IC perturbation the supervisor is given.
const perturbAmp = 0.01

// schedReq is one request of the generated load.
type schedReq struct {
	due   time.Duration // offset from the phase start (open loop only)
	route int           // index into serveRoutes
	path  string
}

// schedule is the request sequence: a pure function of (seed, rate, n)
// for a given ensemble size. Six request shapes rotate (two field
// grids, point, ensemble, track, members) with seeded member and point
// choices; request i is due at i/rate.
func schedule(seed int64, rate, n, members, nlev int) []schedReq {
	rng := rand.New(rand.NewSource(seed))
	level := 3
	if level >= nlev {
		level = nlev - 1
	}
	out := make([]schedReq, n)
	for i := range out {
		m := rng.Intn(members)
		lon, lat := -180+360*rng.Float64(), -80+160*rng.Float64()
		r := schedReq{due: time.Duration(i) * time.Second / time.Duration(rate)}
		switch i % 6 {
		case 0:
			r.route, r.path = 0, fmt.Sprintf("/v1/field?member=%d&field=PS&nlon=144&nlat=72", m)
		case 1:
			r.route, r.path = 0, fmt.Sprintf("/v1/field?member=%d&field=T&level=%d&nlon=72&nlat=36", m, level)
		case 2:
			r.route, r.path = 1, fmt.Sprintf("/v1/point?member=%d&field=T&lon=%.3f&lat=%.3f", m, lon, lat)
		case 3:
			r.route, r.path = 2, "/v1/ensemble?field=PS&nlon=72&nlat=36"
		case 4:
			r.route, r.path = 3, fmt.Sprintf("/v1/track?member=%d", m)
		case 5:
			r.route, r.path = 4, "/v1/members"
		}
		out[i] = r
	}
	return out
}

// session is one built forecast service: supervisor, server on a
// loopback listener, and the harness's client.
type session struct {
	w      workload
	seed   int64
	sup    *serve.Supervisor
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	cycles int
}

// serveConfig is the supervisor configuration a serve workload runs.
func serveConfig(w workload, seed int64) serve.Config {
	return serve.Config{
		Members: w.Members, Dycore: w.shape().cfg, Backend: w.Backend, Ranks: w.Ranks,
		CycleSteps: w.CycleSteps, IC: "vortex", PerturbAmp: perturbAmp, Seed: seed,
	}
}

// startSession is one cold build up to the first timed operation:
// NewSupervisor (meshes, jobs, ICs, scatter), the server and listener,
// one publish cycle (the warm-up steps), and one request of every shape
// so both lat-lon samplers exist before anything is timed.
func startSession(w workload, seed int64, tr *tracer) (*session, error) {
	end := tr.begin("setup.supervisor")
	sup, err := serve.NewSupervisor(serveConfig(w, seed), nil)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("setup.listen")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		end()
		return nil, err
	}
	s := &session{
		w: w, seed: seed, sup: sup,
		hs:     &http.Server{Handler: serve.NewServer(sup, serve.ServerConfig{})},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: genConns, MaxIdleConnsPerHost: genConns},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	end()

	end = tr.begin("warmup")
	defer end()
	if err := s.cycle(); err != nil {
		s.close()
		return nil, err
	}
	for _, r := range schedule(seed, 1, 6, w.Members, w.Nlev) {
		if got, _ := s.doChecked(r, true); got.outcome.status != 200 || got.outcome.malformed {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d", r.path, got.outcome.status)
		}
	}
	return s, nil
}

// close stops the server and waits for its goroutine.
func (s *session) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // connections that would not drain are cut
	}
	<-s.served
}

// cycle is phase (a), the write: every member integrates CycleSteps
// steps and publishes a new snapshot version, which leaves every
// decode cache cold.
func (s *session) cycle() error {
	s.cycles++
	return s.sup.RunCycles(1)
}

// reqSample is one answered (or failed) request.
type reqSample struct {
	route   int
	latNs   int64 // from due time (open loop) or send time (closed loop)
	lateNs  int64 // how late the generator sent it (open loop)
	bytes   int
	outcome reqOutcome
}

// wellFormed reports whether a 200 body is the JSON object the routes
// promise.
func wellFormed(body []byte) bool {
	var v map[string]json.RawMessage
	return json.Unmarshal(body, &v) == nil && len(v) > 0
}

// doChecked sends one request, reads the whole body, notes when that
// finished, and then checks the body: fully decoded when full is set,
// else only its first byte. The generator decodes one response in
// eight so that its own CPU use stays small beside the server's.
func (s *session) doChecked(r schedReq, full bool) (reqSample, time.Time) {
	out := reqSample{route: r.route}
	resp, err := s.client.Get(s.base + r.path)
	if err != nil {
		return out, time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return out, done
	}
	out.bytes = len(body)
	out.outcome.status = resp.StatusCode
	if resp.StatusCode == 200 {
		if full {
			out.outcome.malformed = !wellFormed(body)
		} else {
			out.outcome.malformed = len(body) < 2 || body[0] != '{'
		}
	}
	return out, done
}

// openLoop is phase (b): requests leave on schedule whatever the
// server does, over genConns connections; client k owns requests k,
// k+genConns, ... Latency runs from the due time, so a stall is charged
// to every request it delays.
func (s *session) openLoop(reqs []schedReq) []reqSample {
	out := make([]reqSample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < genConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(reqs); i += genConns {
				due := start.Add(reqs[i].due)
				if d := time.Until(due) - spinWindow; d > 0 {
					time.Sleep(d)
				}
				for time.Now().Before(due) {
					runtime.Gosched() // the server's goroutines run in the gaps
				}
				sent := time.Now()
				smp, done := s.doChecked(reqs[i], i%8 == 0)
				smp.latNs = done.Sub(due).Nanoseconds()
				smp.lateNs = sent.Sub(due).Nanoseconds()
				out[i] = smp
			}
		}(k)
	}
	wg.Wait()
	return out
}

// closedLoop is phase (c): genConns clients, each sending its next
// request when the previous one is answered. It returns the samples and
// the wall time of the phase; capacity is requests over that time.
func (s *session) closedLoop(reqs []schedReq) ([]reqSample, time.Duration) {
	out := make([]reqSample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < genConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(reqs); i += genConns {
				sent := time.Now()
				smp, done := s.doChecked(reqs[i], i%8 == 0)
				smp.latNs = done.Sub(sent).Nanoseconds()
				out[i] = smp
			}
		}(k)
	}
	wg.Wait()
	return out, time.Since(start)
}

// memberReference replays member idx's trajectory on an independent
// unsupervised job from the IC the supervisor was configured with, and
// returns the state hash after steps steps.
func memberReference(w workload, seed int64, idx, steps int) (uint64, error) {
	sh := w.shape()
	s, err := dycore.NewSolver(sh.cfg)
	if err != nil {
		return 0, err
	}
	g := s.NewState()
	s.InitRest(g, 288)
	tc.KatrinaLikeVortex().Install(s, g)
	if idx > 0 {
		core.PerturbInitial(g, seed+int64(idx), perturbAmp)
	}
	sh.supervised, sh.physics = false, false // members run dynamics only
	job, _, err := newJob(sh)
	if err != nil {
		return 0, err
	}
	local := job.Scatter(g)
	if _, err := job.RunChecked(local, steps); err != nil {
		return 0, err
	}
	return core.StateFNV(job.Gather(local)), nil
}

// segmentSamples is what one segment measured.
type segmentSamples struct {
	cycle    delta
	open     []reqSample
	closed   []reqSample
	closedNs int64
}

// segment runs the three phases in order.
func (s *session) segment(i int, tr *tracer) (segmentSamples, error) {
	var seg segmentSamples
	w := s.w
	end := tr.begin("serve.cycle")
	mt := startMeter()
	err := s.cycle()
	seg.cycle = mt.stop()
	end()
	if err != nil {
		return seg, err
	}
	// Each segment draws its own request sequence from the workload seed.
	sseed := s.seed*1000 + int64(i)
	end = tr.begin("serve.open_loop")
	seg.open = s.openLoop(schedule(sseed, w.OpenRate, w.OpenN, w.Members, w.Nlev))
	end()
	end = tr.begin("serve.closed_loop")
	var wall time.Duration
	seg.closed, wall = s.closedLoop(schedule(sseed+500, w.OpenRate, genConns*w.ClosedN, w.Members, w.Nlev))
	seg.closedNs = wall.Nanoseconds()
	end()
	return seg, nil
}

// serveTotals accumulates segments into the samples the metrics need.
type serveTotals struct {
	steps    stepSamples // phase (a), per member model step
	capacity []float64   // phase (c) requests per second, per segment
	openLat  []float64   // phase (b) latency from due time, ms, pooled
	late     []float64   // phase (b) generator lateness, ms, pooled
	byRoute  [][]float64 // phase (b) latency per route, ms
	requests []reqOutcome
	bytes    int64
	shed     int
	cycleMs  []float64
	segP50   []float64 // phase (b) median latency of each segment, ms

	// hash is member 0's snapshot after the first segment: a fixed step
	// count, so it compares across runs however many segments each ran.
	hash uint64
}

func (t *serveTotals) add(w workload, seg segmentSamples) {
	if t.byRoute == nil {
		t.byRoute = make([][]float64, len(serveRoutes))
	}
	t.steps.add(seg.cycle, w.Members*w.CycleSteps)
	t.cycleMs = append(t.cycleMs, float64(seg.cycle.WallNs)/1e6)
	t.capacity = append(t.capacity, float64(len(seg.closed))/(float64(seg.closedNs)/1e9))
	first := len(t.openLat)
	for _, r := range seg.open {
		ms := float64(r.latNs) / 1e6
		t.openLat = append(t.openLat, ms)
		t.late = append(t.late, float64(r.lateNs)/1e6)
		t.byRoute[r.route] = append(t.byRoute[r.route], ms)
	}
	t.segP50 = append(t.segP50, median(t.openLat[first:]))
	for _, rs := range [][]reqSample{seg.open, seg.closed} {
		for _, r := range rs {
			t.requests = append(t.requests, r.outcome)
			t.bytes += int64(r.bytes)
			if r.outcome.status == http.StatusTooManyRequests {
				t.shed++
			}
		}
	}
}

// runSession builds the service (before cold builds, the last kept),
// runs segments until the time is used, times after more cold builds,
// checks the members' final snapshots against independent references,
// and closes the service.
func runSession(w workload, o options, before, after int, budget time.Duration, minSegs int, tr *tracer) (*serveTotals, []float64, observations, error) {
	var obsv observations
	build := func() (*session, error) { return startSession(w, o.seed, tr) }
	closeIt := func(s *session) { s.close() }
	s, setup, err := coldBuilds(before, build, closeIt)
	if err != nil {
		return nil, nil, obsv, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer s.close()

	tot := new(serveTotals)
	start := time.Now()
	for i := 0; i < minSegs || time.Since(start) < budget; i++ {
		end := tr.begin(fmt.Sprintf("segment[%d]", i))
		seg, err := s.segment(i, tr)
		end()
		if err != nil {
			return nil, nil, obsv, err
		}
		tot.add(w, seg)
		if i == 0 {
			if st, _, err := s.sup.Store().Read(0); err == nil {
				tot.hash = core.StateFNV(st)
			}
		}
	}

	if after > 0 {
		extra, more, err := coldBuilds(after, build, closeIt)
		if err != nil {
			return nil, nil, obsv, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		extra.close()
		setup = append(setup, more...)
	}

	// Every member's served snapshot must be the bits an independent
	// unsupervised job reaches after the same steps.
	end := tr.begin("check.reference")
	defer end()
	steps := s.cycles * w.CycleSteps
	for i := 0; i < w.Members; i++ {
		st, meta, err := s.sup.Store().Read(i)
		var h uint64
		if err == nil && meta.Step != steps {
			err = fmt.Errorf("member %d serves step %d, want %d", i, meta.Step, steps)
		}
		if err == nil {
			h = core.StateFNV(st)
			if cerr := st.Check(0); cerr != nil {
				err = cerr
			}
		}
		want, rerr := memberReference(w, o.seed, i, steps)
		if rerr != nil {
			return nil, nil, obsv, rerr
		}
		obsv.repErrs = append(obsv.repErrs, err)
		obsv.repHashes = append(obsv.repHashes, h)
		obsv.repWant = append(obsv.repWant, want)
	}
	obsv.requests = tot.requests
	return tot, setup, obsv, nil
}

// runServe is a pass of serve-mix.
func runServe(w workload, o options) (*fullResult, error) {
	fr := newFullResult(w, o)
	var tr *tracer
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		tr = newTracer(w.Name)
		budget /= 3
	}
	endRoot := tr.begin(w.Name)
	before, after := o.setups()
	minSegs := 3
	if o.quick {
		minSegs = 1
	}
	tot, setup, obsv, err := runSession(w, o, before, after, budget, minSegs, tr)
	if err != nil {
		return nil, err
	}
	end := tr.begin("check.gate")
	v := gate(obsv)
	end()
	fr.verdict(v)
	fr.Hash = fmt.Sprintf("%016x", tot.hash)

	if !o.traced {
		tot.steps.emit(fr, setup)
		fr.set(endToEnd, "req_per_s", high(tot.capacity))
		fr.set(endToEnd, "latency_p50_ms", low(tot.segP50))
		fr.Samples["req_per_s"] = summarize(tot.capacity)
		fr.Samples["latency_p50_ms"] = summarize(tot.segP50)
		fr.Series["req_per_s"], fr.Series["latency_p50_ms"] = tot.capacity, tot.segP50
		fr.Derived["segments"] = float64(len(tot.capacity))
		fr.Derived["latency_p90_ms"] = quantile(tot.openLat, 0.9)
		fr.Derived["latency_p99_ms"] = quantile(tot.openLat, 0.99)
		fr.Derived["gen_late_p99_ms"] = quantile(tot.late, 0.99)
		endRoot()
		return fr, nil
	}

	// Traced pass: the serve metrics come from this traffic; the model
	// layers are measured and replayed on one member's shape.
	sh := w.shape()
	m, err := buildModel(sh, o.seed, nil)
	if err != nil {
		return nil, err
	}
	peer, err := peerHash(sh, m, w.StepsPerRep)
	if err != nil {
		return nil, err
	}
	l := measureReps(m, w.StepsPerRep, tr, 0, 2*o.minReps(), peer)
	if mv := gate(l.obsv); mv.Failed > 0 || !l.ok {
		return nil, fmt.Errorf("%s: member-shape reps failed: %v", w.Name, mv.Reasons)
	}
	lc := newLayerCtx(w, sh, o, tr, fr)
	lc.fromRun(l, w.StepsPerRep)
	if err := lc.replayModelLayers(m); err != nil {
		return nil, err
	}
	lc.fromServe(tot)
	endRoot()
	if err := tr.flush(o.traceDir, fr.Metrics); err != nil {
		return nil, err
	}
	return fr, nil
}
