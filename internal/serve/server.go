package serve

import (
	"context"
	"errors"
	"net/http"
	_ "net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swcam/internal/mesh"
	"swcam/internal/obs"
)

// ServerConfig bounds the request path.
type ServerConfig struct {
	// MaxConcurrent requests execute at once (default 8); excess waits.
	MaxConcurrent int
	// MaxQueue is the bound on waiting requests (default 64). A request
	// arriving with the queue full is shed immediately with 429 — load
	// the server cannot absorb is refused at the door, not buffered
	// into collapse.
	MaxQueue int
	// DefaultDeadline is the per-request budget when the client sends
	// none (default 2s). Clients override with ?deadline_ms=.
	DefaultDeadline time.Duration
	// MinReady is how many members must have a published snapshot for
	// /readyz to report ready (default 1): the service is ready when it
	// can answer something, even mid-recovery.
	MinReady int
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.MaxConcurrent < 1 {
		out.MaxConcurrent = 8
	}
	if out.MaxQueue < 1 {
		out.MaxQueue = 64
	}
	if out.DefaultDeadline <= 0 {
		out.DefaultDeadline = 2 * time.Second
	}
	if out.MinReady < 1 {
		out.MinReady = 1
	}
	return out
}

// Server is the HTTP face of a supervised ensemble.
type Server struct {
	sup *Supervisor
	cfg ServerConfig
	reg *obs.Registry

	// Admission: sem bounds executing requests, queued bounds waiters.
	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	// slowHook, when set, runs inside every data handler before the
	// work — the test lever for forcing deadline expiry.
	slowHook func(ctx context.Context)

	samplers samplers
	bodies   bodyCache
	nodes    *mesh.NodeSearch
	trackMu  sync.Mutex
	tracks   map[int]*trackHistory

	mux *http.ServeMux
}

// NewServer wraps a supervisor in the request path.
func NewServer(sup *Supervisor, cfg ServerConfig) *Server {
	s := &Server{
		sup: sup,
		cfg: cfg.withDefaults(),
		reg: sup.reg(),

		bodies: bodyCache{store: sup.store, budget: bodyCacheBytes},
		nodes:  mesh.NewNodeSearch(sup.solver.Mesh),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.mux = http.NewServeMux()
	// Health, readiness, metrics and the profiler bypass admission
	// control: a probe must never be shed or queued behind data traffic,
	// or the orchestrator would kill a merely busy server — and metrics
	// and a CPU profile are needed most when the data path is shedding.
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.Handle("/debug/pprof/", http.DefaultServeMux) // where importing net/http/pprof registers
	s.mux.Handle("/v1/config", s.admit(s.handleConfig))
	s.mux.Handle("/v1/members", s.admit(s.handleMembers))
	s.mux.Handle("/v1/field", s.admit(s.handleField))
	s.mux.Handle("/v1/point", s.admit(s.handlePoint))
	s.mux.Handle("/v1/ensemble", s.admit(s.handleEnsemble))
	s.mux.Handle("/v1/track", s.admit(s.handleTrack))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips readiness off; new readiness probes see 503 while
// in-flight requests finish.
func (s *Server) StartDrain() { s.draining.Store(true) }

// deadline resolves the request's time budget: ?deadline_ms= if given
// (bounded to [1ms, 60s]), else the server default.
func (s *Server) deadline(r *http.Request) (time.Duration, bool) {
	raw := r.URL.Query().Get("deadline_ms")
	if raw == "" {
		return s.cfg.DefaultDeadline, true
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms < 1 || ms > 60_000 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// admit wraps a data handler in the admission path: bounded queue,
// shed-with-429 when full, per-request deadline, latency histogram.
func (s *Server) admit(h func(w http.ResponseWriter, r *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, ok := s.deadline(r)
		if !ok {
			writeErr(w, http.StatusBadRequest, "bad_deadline",
				"deadline_ms must be an integer in [1, 60000]")
			return
		}
		if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.reg.Counter("serve.requests.shed").Add(1)
			writeErr(w, http.StatusTooManyRequests, "queue_full",
				"admission queue is full; retry with backoff")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.reg.Counter("serve.requests.deadline").Add(1)
			writeErr(w, http.StatusGatewayTimeout, "deadline_exceeded",
				"deadline expired while queued")
			return
		}
		defer func() { <-s.sem }()
		start := time.Now()
		if s.slowHook != nil {
			s.slowHook(ctx)
		}
		if ctx.Err() != nil {
			s.reg.Counter("serve.requests.deadline").Add(1)
			writeErr(w, http.StatusGatewayTimeout, "deadline_exceeded",
				"deadline expired during processing")
			return
		}
		h(w, r.WithContext(ctx))
		s.reg.Counter("serve.requests.served").Add(1)
		s.reg.Histogram("serve.latency_ms").Observe(
			float64(time.Since(start).Microseconds()) / 1000)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and the mux is answering. Always 200;
	// an unhealthy server is one that cannot respond at all.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "draining"})
		return
	}
	// A member counts as ready only if its latest snapshot exists AND
	// passes CRC re-verification. A snapshot corrupt at rest fails the
	// whole probe — a server holding rotted bytes must be taken out of
	// rotation, not trusted because enough other members look healthy.
	ready, corrupt := 0, 0
	for i := 0; i < s.sup.store.Members(); i++ {
		if _, ok := s.sup.store.Latest(i); !ok {
			continue
		}
		if err := s.sup.store.VerifyLatest(i); err != nil {
			if errors.Is(err, ErrSnapshotCorrupt) {
				corrupt++
			}
			continue
		}
		ready++
	}
	if corrupt > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "corrupt", "ready_members": ready,
			"corrupt_members": corrupt,
		})
		return
	}
	if ready < s.cfg.MinReady {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "warming", "ready_members": ready,
			"min_ready": s.cfg.MinReady,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "ready_members": ready,
	})
}
