// Command swserve runs the ensemble forecast service: N perturbed-IC
// members integrating continuously under supervision, answering HTTP
// queries from versioned snapshots, degrading gracefully through member
// crashes instead of dying.
//
//	swserve -members 3 -ne 4 -nlev 8 -addr 127.0.0.1:8090
//	swserve -members 3 -kills 1@3,1@9 -faults chaos:4@42
//
// Endpoints: /healthz /readyz /v1/config /v1/members /v1/field
// /v1/point /v1/ensemble /v1/track /v1/metrics /debug/pprof/.
// SIGINT/SIGTERM drains:
// readiness flips off, in-flight requests finish, members complete
// their current cycle and checkpoint, observability flushes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
	"swcam/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	members := flag.Int("members", 3, "ensemble size")
	ne := flag.Int("ne", 4, "cubed-sphere resolution (elements per edge)")
	nlev := flag.Int("nlev", 8, "vertical levels")
	qsize := flag.Int("qsize", 1, "tracers")
	ranks := flag.Int("ranks", 2, "simulated core groups per member")
	cycleSteps := flag.Int("cycle-steps", 2, "dynamics steps per snapshot publish")
	horizonCycles := flag.Int("horizon-cycles", 0, "forecast horizon in cycles; members complete there and keep serving their final snapshot (0 = integrate forever)")
	dynWorkers := flag.Int("dyn-workers", 1, "intra-rank dynamics workers")
	backendName := flag.String("backend", "athread", "execution backend: intel|mpe|openacc|athread")
	ic := flag.String("ic", "vortex", "base initial condition: vortex|barowave")
	perturb := flag.Float64("perturb", 0.01, "member IC perturbation amplitude, K")
	seed := flag.Int64("seed", 42, "deterministic seed (perturbations, jitter, kills)")
	recovery := flag.String("recovery", "ladder", "intra-member recovery: ladder|global")
	spares := flag.Int("spares", 0, "spare ranks per member for ladder respawn")
	faults := flag.String("faults", "", "mpirt fault spec injected inside each member's world")
	kills := flag.String("kills", "", "injected member crashes: member@cycle,member@cycle,...")
	quarantineAfter := flag.Int("quarantine-after", 5, "consecutive crashes before a member is quarantined")
	maxConcurrent := flag.Int("max-concurrent", 8, "requests executing at once")
	maxQueue := flag.Int("max-queue", 64, "admission queue bound (excess sheds with 429)")
	deadlineMs := flag.Int("deadline-ms", 2000, "default per-request deadline")
	minReady := flag.Int("min-ready", 1, "members with snapshots required for readiness")
	ckDir := flag.String("checkpoint-dir", "", "drain writes member_<i>.ckpt here (empty = skip)")
	obsOn := flag.Bool("obs", false, "print the counter registry on exit")
	flag.Parse()

	var backend exec.Backend
	switch *backendName {
	case "intel":
		backend = exec.Intel
	case "mpe":
		backend = exec.MPE
	case "openacc":
		backend = exec.OpenACC
	case "athread":
		backend = exec.Athread
	default:
		fmt.Fprintf(os.Stderr, "swserve: unknown backend %q\n", *backendName)
		os.Exit(2)
	}
	plan, err := serve.ParseKillPlan(*kills)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swserve:", err)
		os.Exit(2)
	}

	cfg := dycore.DefaultConfig(*ne)
	cfg.Nlev = *nlev
	cfg.Qsize = *qsize
	probe := obs.NewProbe()
	sup, err := serve.NewSupervisor(serve.Config{
		Members:         *members,
		Dycore:          cfg,
		Backend:         backend,
		Ranks:           *ranks,
		CycleSteps:      *cycleSteps,
		MaxCycles:       *horizonCycles,
		DynWorkers:      *dynWorkers,
		IC:              *ic,
		PerturbAmp:      *perturb,
		Seed:            *seed,
		Recovery:        *recovery,
		Spares:          *spares,
		Faults:          *faults,
		Kills:           plan,
		QuarantineAfter: *quarantineAfter,
	}, probe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swserve:", err)
		os.Exit(1)
	}
	srv := serve.NewServer(sup, serve.ServerConfig{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		DefaultDeadline: time.Duration(*deadlineMs) * time.Millisecond,
		MinReady:        *minReady,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	sup.Start()
	fmt.Printf("swserve: %d members (%s, ne%d nlev=%d, %d ranks each, %v backend), cycle = %d steps\n",
		*members, *ic, *ne, *nlev, *ranks, backend, *cycleSteps)
	fmt.Printf("swserve: listening on http://%s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "swserve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("swserve: %v received; draining\n", s)
	}

	// Drain order matters: stop advertising readiness first, then let
	// in-flight requests finish, then let members complete their cycle
	// (and publish), then persist and flush.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "swserve: shutdown:", err)
	}
	sup.Stop()
	if *ckDir != "" {
		if err := sup.Checkpoint(*ckDir); err != nil {
			fmt.Fprintln(os.Stderr, "swserve: checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("swserve: member checkpoints written to %s\n", *ckDir)
	}
	if *obsOn {
		fmt.Println("== counters ==")
		probe.Reg.WriteText(os.Stdout)
	}
	for _, m := range sup.Members() {
		fmt.Printf("swserve: member %d: %s, %d restarts\n", m.Index(), m.State(), m.Restarts())
	}
	fmt.Println("swserve: drained cleanly")
}
