package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
)

func testSupervisor(t *testing.T, members int, kills KillPlan) *Supervisor {
	t.Helper()
	cfg := dycore.DefaultConfig(2)
	cfg.Nlev = 4
	cfg.Qsize = 1
	sup, err := NewSupervisor(Config{
		Members:    members,
		Dycore:     cfg,
		Backend:    exec.Intel,
		Ranks:      2,
		CycleSteps: 1,
		DynWorkers: 1,
		IC:         "vortex",
		Seed:       42,
		Kills:      kills,
	}, obs.NewProbe())
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: body: %v", url, err)
	}
	var m map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: not JSON (%v): %q", url, err, body)
		}
	}
	return resp, m
}

// errCode extracts the typed error code from an error envelope ("" if
// the body is not one).
func errCode(m map[string]any) string {
	e, ok := m["error"].(map[string]any)
	if !ok {
		return ""
	}
	code, _ := e["code"].(string)
	return code
}

// TestHandlerErrorTable is the malformed-query matrix: every bad input
// must produce a typed JSON error with the right status — never a
// panic, a hang, or an empty body.
func TestHandlerErrorTable(t *testing.T) {
	sup := testSupervisor(t, 2, nil)
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// A server whose members have published nothing: a malformed query
	// is still rejected as such, before any state is read.
	empty := httptest.NewServer(NewServer(testSupervisor(t, 2, nil), ServerConfig{}))
	defer empty.Close()

	tests := []struct {
		name       string
		path       string
		wantStatus int
		wantCode   string
	}{
		{"field: member out of range", "/v1/field?member=99", http.StatusNotFound, "unknown_member"},
		{"field: member negative", "/v1/field?member=-1", http.StatusNotFound, "unknown_member"},
		{"field: member not a number", "/v1/field?member=abc", http.StatusNotFound, "unknown_member"},
		{"field: unknown field name", "/v1/field?field=BOGUS", http.StatusBadRequest, "unknown_field"},
		{"field: level out of range", "/v1/field?field=T&level=999", http.StatusBadRequest, "bad_request"},
		{"field: level negative", "/v1/field?field=T&level=-1", http.StatusBadRequest, "bad_request"},
		{"field: nlon zero", "/v1/field?nlon=0", http.StatusBadRequest, "bad_request"},
		{"field: nlon huge", "/v1/field?nlon=1000000", http.StatusBadRequest, "bad_request"},
		{"field: nlat not a number", "/v1/field?nlat=abc", http.StatusBadRequest, "bad_request"},
		{"point: missing lon", "/v1/point?lat=20", http.StatusBadRequest, "bad_request"},
		{"point: missing lat", "/v1/point?lon=20", http.StatusBadRequest, "bad_request"},
		{"point: lat out of range", "/v1/point?lon=0&lat=91", http.StatusBadRequest, "bad_request"},
		{"point: lon not a number", "/v1/point?lon=west&lat=20", http.StatusBadRequest, "bad_request"},
		{"point: unknown member", "/v1/point?member=7&lon=0&lat=0", http.StatusNotFound, "unknown_member"},
		{"track: unknown member", "/v1/track?member=5", http.StatusNotFound, "unknown_member"},
		{"ensemble: unknown field", "/v1/ensemble?field=WAT", http.StatusBadRequest, "unknown_field"},
		{"ensemble: bad nlat", "/v1/ensemble?nlat=-3", http.StatusBadRequest, "bad_request"},
		{"deadline: not a number", "/v1/members?deadline_ms=abc", http.StatusBadRequest, "bad_deadline"},
		{"deadline: zero", "/v1/members?deadline_ms=0", http.StatusBadRequest, "bad_deadline"},
		{"deadline: beyond cap", "/v1/members?deadline_ms=61000", http.StatusBadRequest, "bad_deadline"},
		{"empty store: field: unknown field name", "/v1/field?field=BOGUS", http.StatusBadRequest, "unknown_field"},
		{"empty store: field: level out of range", "/v1/field?field=PS&level=1", http.StatusBadRequest, "bad_request"},
		{"empty store: field: no snapshot", "/v1/field?field=T", http.StatusNotFound, "no_snapshot"},
		{"empty store: point: unknown field name", "/v1/point?field=BOGUS&lon=0&lat=0", http.StatusBadRequest, "unknown_field"},
		{"empty store: ensemble: unknown field", "/v1/ensemble?field=BOGUS", http.StatusBadRequest, "unknown_field"},
		{"empty store: ensemble: level out of range", "/v1/ensemble?field=T&level=4", http.StatusBadRequest, "bad_request"},
		{"empty store: ensemble: no members", "/v1/ensemble?field=T", http.StatusServiceUnavailable, "no_members"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			base := ts.URL
			if strings.HasPrefix(tt.name, "empty store: ") {
				base = empty.URL
			}
			resp, body := getJSON(t, base+tt.path)
			if resp.StatusCode != tt.wantStatus {
				t.Errorf("status = %d, want %d (body %v)", resp.StatusCode, tt.wantStatus, body)
			}
			if code := errCode(body); code != tt.wantCode {
				t.Errorf("error code = %q, want %q (body %v)", code, tt.wantCode, body)
			}
		})
	}
}

func TestHandlerNoSnapshotAndReadiness(t *testing.T) {
	sup := testSupervisor(t, 1, nil)
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Before the first publish: data 404s with a typed code, readiness
	// reports warming, liveness is already green.
	resp, body := getJSON(t, ts.URL+"/v1/field")
	if resp.StatusCode != http.StatusNotFound || errCode(body) != "no_snapshot" {
		t.Fatalf("pre-publish field: %d %v", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish readyz: %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	if resp, _ := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish readyz: %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/field?field=PS"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish field: %d", resp.StatusCode)
	}

	// Draining flips readiness off while data endpoints keep answering
	// in-flight-style traffic.
	srv.StartDrain()
	resp, body = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining readyz: %d %v", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/members"); resp.StatusCode != http.StatusOK {
		t.Fatalf("members during drain: %d", resp.StatusCode)
	}
}

// TestHandlerQuarantinedMemberServesStale: a quarantined member's last
// snapshot stays servable, explicitly marked, and the ensemble answers
// from the surviving subensemble.
func TestHandlerQuarantinedMemberServesStale(t *testing.T) {
	sup := testSupervisor(t, 2, nil)
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	sup.members[1].setState(MemberQuarantined)
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := getJSON(t, ts.URL+"/v1/field?member=1&field=PS")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantined member field: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(headerStale); got != "quarantined" {
		t.Fatalf("%s = %q, want quarantined", headerStale, got)
	}
	if resp.Header.Get(headerStalenessMs) == "" {
		t.Fatalf("%s missing on a stale response", headerStalenessMs)
	}

	resp, body := getJSON(t, ts.URL+"/v1/ensemble?field=PS&nlon=8&nlat=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ensemble with quarantined member: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get(headerMembers); got != "1/2" {
		t.Fatalf("%s = %q, want 1/2", headerMembers, got)
	}
	if n, _ := body["members"].(float64); n != 1 {
		t.Fatalf("ensemble members = %v, want 1", body["members"])
	}

	// A recovering member serves stale with its own reason.
	sup.members[1].setState(MemberRecovering)
	resp, _ = getJSON(t, ts.URL+"/v1/field?member=1&field=PS")
	if got := resp.Header.Get(headerStale); got != "recovering" {
		t.Fatalf("%s = %q, want recovering", headerStale, got)
	}

	// Every member quarantined: the ensemble is honest about having
	// nothing, with a typed code, not a fake answer.
	sup.members[0].setState(MemberQuarantined)
	sup.members[1].setState(MemberQuarantined)
	resp, body = getJSON(t, ts.URL+"/v1/ensemble")
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(body) != "no_members" {
		t.Fatalf("all-quarantined ensemble: %d %v", resp.StatusCode, body)
	}
}

func TestHandlerDeadlineExceeded(t *testing.T) {
	sup := testSupervisor(t, 1, nil)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	srv.slowHook = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := getJSON(t, ts.URL+"/v1/members?deadline_ms=25")
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(body) != "deadline_exceeded" {
		t.Fatalf("deadline: %d %v", resp.StatusCode, body)
	}
}

// TestHandlerQueueFullSheds: with a single execution slot and a queue
// of one, a burst must shed with 429 — bounded admission, no pileup —
// while the diagnostics outside admission keep answering.
func TestHandlerQueueFullSheds(t *testing.T) {
	sup := testSupervisor(t, 1, nil)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{MaxConcurrent: 1, MaxQueue: 1})
	release := make(chan struct{})
	var once sync.Once
	srv.slowHook = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const burst = 6
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/members?deadline_ms=5000")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait for the burst to pile into the admission path: one request
	// parked in its slot, one queued, the rest shed.
	for t0 := time.Now(); sup.reg().CounterValue("serve.requests.shed") < burst-2; {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("burst never filled the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	// With the queue full a data route sheds, but /v1/metrics and the
	// profiler must not: they are needed exactly now.
	if resp, body := getJSON(t, ts.URL+"/v1/field"); resp.StatusCode != http.StatusTooManyRequests || errCode(body) != "queue_full" {
		t.Errorf("/v1/field with the queue full: %d %v, want 429 queue_full", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/metrics", "/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with the queue full: %d, want 200", path, resp.StatusCode)
		}
	}
	// Let the executing request (and the queued one) finish.
	once.Do(func() { close(release) })
	wg.Wait()
	close(codes)

	count := map[int]int{}
	for c := range codes {
		count[c]++
	}
	if count[-1] > 0 {
		t.Fatalf("transport errors in burst: %v", count)
	}
	if count[http.StatusTooManyRequests] == 0 {
		t.Fatalf("burst of %d against capacity 2 shed nothing: %v", burst, count)
	}
	for code := range count {
		if code >= 500 && code != http.StatusGatewayTimeout {
			t.Fatalf("unexpected server fault %d in shed test: %v", code, count)
		}
	}
	// Sheds are counted for the BENCH serving block.
	if n := sup.reg().CounterValue("serve.requests.shed"); n == 0 {
		t.Fatal("serve.requests.shed not incremented")
	}
}

// TestHandlerDataEndpointsRoundTrip: happy-path shapes of every data
// endpoint, including TC-track fixes on the vortex IC.
func TestHandlerDataEndpointsRoundTrip(t *testing.T) {
	sup := testSupervisor(t, 2, nil)
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := getJSON(t, ts.URL+"/v1/config")
	if resp.StatusCode != http.StatusOK || body["members"].(float64) != 2 {
		t.Fatalf("config: %d %v", resp.StatusCode, body)
	}

	resp, body = getJSON(t, ts.URL+"/v1/field?member=1&field=T&level=3&nlon=16&nlat=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("field: %d %v", resp.StatusCode, body)
	}
	if vals := body["values"].([]any); len(vals) != 16*8 {
		t.Fatalf("field values = %d, want %d", len(vals), 16*8)
	}
	if resp.Header.Get(headerStale) != "" {
		t.Fatal("fresh response carries a staleness header")
	}

	resp, body = getJSON(t, ts.URL+"/v1/point?member=0&field=PS&lon=-75.1&lat=23.1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point: %d %v", resp.StatusCode, body)
	}
	// The vortex depression sits at the queried centre: surface
	// pressure there must be below the ~1e5 Pa background.
	if v := body["value"].(float64); v >= 1e5 || v < 5e4 {
		t.Fatalf("point PS at vortex centre = %v, want a depression below 1e5", v)
	}

	resp, body = getJSON(t, ts.URL+"/v1/ensemble?field=T&nlon=8&nlat=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ensemble: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get(headerMembers); got != "2/2" {
		t.Fatalf("%s = %q, want 2/2", headerMembers, got)
	}
	spread := body["spread"].([]any)
	anyPositive := false
	for _, s := range spread {
		if s.(float64) > 0 {
			anyPositive = true
		}
		if s.(float64) < 0 {
			t.Fatal("negative spread")
		}
	}
	if !anyPositive {
		t.Fatal("perturbed members produced identically zero spread")
	}

	resp, body = getJSON(t, ts.URL+"/v1/track?member=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("track: %d %v", resp.StatusCode, body)
	}
	fixes := body["fixes"].([]any)
	if len(fixes) == 0 {
		t.Fatal("track returned no fixes")
	}
	fix := fixes[len(fixes)-1].(map[string]any)
	if _, ok := fix["min_ps"]; !ok {
		t.Fatalf("fix missing wire fields: %v", fix)
	}

	// The track grows with the forecast: another cycle, another fix.
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	_, body = getJSON(t, ts.URL+"/v1/track?member=0")
	if got := len(body["fixes"].([]any)); got != len(fixes)+1 {
		t.Fatalf("track after one more cycle has %d fixes, want %d", got, len(fixes)+1)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics []map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics not a JSON array: %v", err)
	}
	if mresp.StatusCode != http.StatusOK || len(metrics) == 0 {
		t.Fatalf("metrics: %d with %d entries", mresp.StatusCode, len(metrics))
	}
}

// TestEnsembleDeterminism: two supervisors built from the same seed
// publish bit-identical snapshots — the foundation the bit-identity
// soak assertion rests on.
func TestEnsembleDeterminism(t *testing.T) {
	run := func() map[string][]byte {
		sup := testSupervisor(t, 2, nil)
		got := map[string][]byte{}
		sup.store.OnPublish = func(member, step int, data []byte) {
			got[fmt.Sprintf("%d@%d", member, step)] = data
		}
		if err := sup.RunCycles(3); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("publish counts differ: %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			t.Fatalf("second run missing %s", k)
		}
		if string(av) != string(bv) {
			t.Fatalf("snapshot %s differs between identically seeded runs", k)
		}
	}
}
