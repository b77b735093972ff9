package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/mesh"
)

// The oracles below are the request path as it was before bodies were
// cached: sample the decoded snapshot afresh, derive PS over the whole
// mesh, put the answer in a map[string]any and encode it with
// json.Encoder. Every cached or freshly rendered body must equal theirs
// byte for byte.

func oracleEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleFieldSlice(s *dycore.Solver, st *dycore.State, name string) [][]float64 {
	switch name {
	case "U":
		return st.U
	case "V":
		return st.V
	case "T":
		return st.T
	case "DP":
		return st.DP
	case "PHIS":
		return st.Phis
	}
	npsq := s.Cfg.Np * s.Cfg.Np
	ps := make([][]float64, len(st.DP))
	for ei := range ps {
		row := make([]float64, npsq)
		for n := 0; n < npsq; n++ {
			row[n] = st.SurfacePressure(ei, n)
		}
		ps[ei] = row
	}
	return ps
}

func oracleFieldBody(t *testing.T, sup *Supervisor, idx int, name string, level, nlon, nlat int) []byte {
	t.Helper()
	st, meta, err := sup.store.Read(idx)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([]float64, nlon*nlat)
	npsq := sup.solver.Cfg.Np * sup.solver.Cfg.Np
	core.NewSampler(sup.solver.Mesh, nlon, nlat).Sample(oracleFieldSlice(sup.solver, st, name), level, npsq, grid)
	return oracleEncode(t, map[string]any{
		"member": idx, "field": name, "level": level,
		"nlon": nlon, "nlat": nlat,
		"step": meta.Step, "sim_hours": meta.SimHours,
		"snapshot_version": meta.Version,
		"values":           grid,
	})
}

func oracleEnsembleBody(t *testing.T, sup *Supervisor, name string, level, nlon, nlat int) []byte {
	t.Helper()
	npsq := sup.solver.Cfg.Np * sup.solver.Cfg.Np
	sp := core.NewSampler(sup.solver.Mesh, nlon, nlat)
	grid := make([]float64, nlon*nlat)
	mean := make([]float64, nlon*nlat)
	m2 := make([]float64, nlon*nlat)
	contributors := 0
	minStep, maxStep := math.MaxInt32, -1
	for i, m := range sup.members {
		if m.State() == MemberQuarantined {
			continue
		}
		st, meta, err := sup.store.Read(i)
		if err != nil {
			continue
		}
		sp.Sample(oracleFieldSlice(sup.solver, st, name), level, npsq, grid)
		contributors++
		for g := range grid {
			d := grid[g] - mean[g]
			mean[g] += d / float64(contributors)
			m2[g] += d * (grid[g] - mean[g])
		}
		if meta.Step < minStep {
			minStep = meta.Step
		}
		if meta.Step > maxStep {
			maxStep = meta.Step
		}
	}
	spread := m2
	for g := range spread {
		spread[g] = math.Sqrt(m2[g] / float64(contributors))
	}
	return oracleEncode(t, map[string]any{
		"field": name, "level": level,
		"nlon": nlon, "nlat": nlat,
		"members": contributors, "ensemble_size": len(sup.members),
		"min_step": minStep, "max_step": maxStep,
		"mean": mean, "spread": spread,
	})
}

// getBody fetches url and returns the response and its raw body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
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
	return resp, body
}

// servedFields lists every (field, level) the data routes serve at nlev.
func servedFields(nlev int) [][2]any {
	var out [][2]any
	for _, f := range []string{"U", "V", "T", "DP"} {
		for k := 0; k < nlev; k++ {
			out = append(out, [2]any{f, k})
		}
	}
	return append(out, [2]any{"PS", 0}, [2]any{"PHIS", 0})
}

var oracleGrids = [][2]int{{72, 36}, {144, 72}, {37, 19}}

// TestFieldBodiesMatchOracle: every /v1/field body, rendered on a miss
// and served again on a hit, is byte-identical to the old renderer's,
// over members x fields x levels x grids; hits render nothing.
func TestFieldBodiesMatchOracle(t *testing.T) {
	sup := testSupervisor(t, 2, nil)
	if err := sup.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sup, ServerConfig{}))
	defer ts.Close()

	for idx := range sup.members {
		for _, fl := range servedFields(sup.solver.Cfg.Nlev) {
			for _, g := range oracleGrids {
				name, level := fl[0].(string), fl[1].(int)
				url := fmt.Sprintf("%s/v1/field?member=%d&field=%s&level=%d&nlon=%d&nlat=%d", ts.URL, idx, name, level, g[0], g[1])
				want := oracleFieldBody(t, sup, idx, name, level, g[0], g[1])
				rendered := sup.reg().CounterValue("serve.bodies.rendered")
				for pass, what := range []string{"miss", "hit"} {
					resp, got := getBody(t, url)
					if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("%s (%s): status %d, body differs from the oracle (%d vs %d bytes)",
							url, what, resp.StatusCode, len(got), len(want))
					}
					if n := sup.reg().CounterValue("serve.bodies.rendered") - rendered; n != 1 {
						t.Fatalf("%s after pass %d: %d renders, want 1", url, pass, n)
					}
				}
			}
		}
	}
}

// TestEnsembleBodiesMatchOracle: every /v1/ensemble body is
// byte-identical to the old renderer's, with the full ensemble, with a
// quarantined member and with a member that has not published.
func TestEnsembleBodiesMatchOracle(t *testing.T) {
	full := testSupervisor(t, 3, nil)
	if err := full.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	quarantined := testSupervisor(t, 3, nil)
	if err := quarantined.RunCycles(2); err != nil {
		t.Fatal(err)
	}
	quarantined.members[1].setState(MemberQuarantined)
	unpublished := testSupervisor(t, 3, nil)
	for _, m := range unpublished.members[:2] {
		if err := m.cycleOnce(); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name    string
		sup     *Supervisor
		members string
	}{
		{"full", full, "3/3"},
		{"quarantined member", quarantined, "2/3"},
		{"unpublished member", unpublished, "2/3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(NewServer(c.sup, ServerConfig{}))
			defer ts.Close()
			for _, fl := range servedFields(c.sup.solver.Cfg.Nlev) {
				for _, g := range oracleGrids {
					name, level := fl[0].(string), fl[1].(int)
					url := fmt.Sprintf("%s/v1/ensemble?field=%s&level=%d&nlon=%d&nlat=%d", ts.URL, name, level, g[0], g[1])
					want := oracleEnsembleBody(t, c.sup, name, level, g[0], g[1])
					for _, what := range []string{"miss", "hit"} {
						resp, got := getBody(t, url)
						if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
							t.Fatalf("%s (%s): status %d, body differs from the oracle", url, what, resp.StatusCode)
						}
						if h := resp.Header.Get(headerMembers); h != c.members {
							t.Fatalf("%s (%s): %s = %q, want %q", url, what, headerMembers, h, c.members)
						}
					}
				}
			}
		})
	}
}

// TestBodyCacheFollowsPublishes: a publish yields a new body carrying the
// new snapshot_version, the cache then holds current versions only, and
// a member quarantined after its body was cached is still marked stale
// on the hit.
func TestBodyCacheFollowsPublishes(t *testing.T) {
	sup := testSupervisor(t, 2, nil)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	field := ts.URL + "/v1/field?member=1&field=T&level=2"
	ensemble := ts.URL + "/v1/ensemble?field=T&level=2"

	version := func(body []byte) float64 {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m["snapshot_version"].(float64)
	}
	_, before := getBody(t, field)
	getBody(t, ensemble)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	_, after := getBody(t, field)
	if v0, v1 := version(before), version(after); v1 != v0+1 {
		t.Fatalf("snapshot_version %v after a publish, want %v", v1, v0+1)
	}
	if want := oracleFieldBody(t, sup, 1, "T", 2, 72, 36); !bytes.Equal(after, want) {
		t.Fatal("body after a publish differs from the oracle")
	}
	if _, got := getBody(t, ensemble); !bytes.Equal(got, oracleEnsembleBody(t, sup, "T", 2, 72, 36)) {
		t.Fatal("ensemble body after a publish differs from the oracle")
	}
	srv.bodies.mu.Lock()
	for k, e := range srv.bodies.m {
		if !srv.bodies.current(e.vers) {
			t.Errorf("cache holds %+v at superseded versions %v", k, e.vers)
		}
	}
	if n := len(srv.bodies.m); n != 2 {
		t.Errorf("cache holds %d bodies, want 2", n)
	}
	srv.bodies.mu.Unlock()

	resp, fresh := getBody(t, field)
	if resp.Header.Get(headerStale) != "" {
		t.Fatal("fresh member served stale")
	}
	sup.members[1].setState(MemberQuarantined)
	rendered := sup.reg().CounterValue("serve.bodies.rendered")
	resp, hit := getBody(t, field)
	if got := resp.Header.Get(headerStale); got != "quarantined" || resp.Header.Get(headerStalenessMs) == "" {
		t.Fatalf("quarantined member on a cache hit: %s = %q, staleness %q", headerStale, got, resp.Header.Get(headerStalenessMs))
	}
	if !bytes.Equal(hit, fresh) || sup.reg().CounterValue("serve.bodies.rendered") != rendered {
		t.Fatal("quarantine changed the field body or forced a render")
	}
	// The cached two-member ensemble no longer applies: the quarantined
	// member leaves the statistics.
	resp, got := getBody(t, ensemble)
	if h := resp.Header.Get(headerMembers); h != "1/2" || !bytes.Equal(got, oracleEnsembleBody(t, sup, "T", 2, 72, 36)) {
		t.Fatalf("ensemble after a quarantine: %s = %q or body differs from the oracle", headerMembers, h)
	}
}

// TestNaNSnapshotAnswers500: a snapshot holding a NaN cannot be encoded
// as JSON; the data routes answer a typed 500 instead of an empty 200,
// and nothing is cached.
func TestNaNSnapshotAnswers500(t *testing.T) {
	sup := testSupervisor(t, 1, nil)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	st, meta, err := sup.store.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	bad := st.Clone()
	for _, row := range bad.T {
		for k := range row {
			row[k] = math.NaN()
		}
	}
	if err := sup.store.Publish(0, meta.Step+1, meta.SimHours, bad); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/v1/field?field=T", "/v1/ensemble?field=T", "/v1/point?field=T&lon=10&lat=10"} {
		for pass := 0; pass < 2; pass++ {
			resp, body := getJSON(t, ts.URL+path)
			if resp.StatusCode != http.StatusInternalServerError || errCode(body) != "internal" {
				t.Fatalf("%s pass %d: %d %v, want 500 internal", path, pass, resp.StatusCode, body)
			}
		}
	}
	srv.bodies.mu.Lock()
	cached := len(srv.bodies.m)
	srv.bodies.mu.Unlock()
	if cached != 0 {
		t.Fatalf("%d failed renders cached", cached)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/field?field=PS"); resp.StatusCode != http.StatusOK {
		t.Fatalf("finite field of the same snapshot: %d", resp.StatusCode)
	}
}

// TestBodyCacheBudgetAndEviction: the cache never exceeds its budget,
// evicts least recently used bodies, refuses a body over budget, and
// drops bodies whose versions a publish superseded.
func TestBodyCacheBudgetAndEviction(t *testing.T) {
	_, st := testState(t, 0)
	store := NewStore(2, nil)
	for i := 0; i < 2; i++ {
		if err := store.Publish(i, 1, 0, st); err != nil {
			t.Fatal(err)
		}
	}
	c := bodyCache{store: store, budget: 100}
	key := func(i int) bodyKey { return bodyKey{member: i % 2, field: "T", level: i} }
	vers := func(i int) []int64 {
		v := make([]int64, 2)
		v[i%2] = 1
		return v
	}
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	c.put(key(0), vers(0), body(40))
	c.put(key(1), vers(1), body(40))
	if _, ok := c.get(key(0), vers(0)); !ok {
		t.Fatal("miss on a cached body")
	}
	c.put(key(2), vers(2), body(40)) // evicts key(1), the least recently used
	if _, ok := c.get(key(1), vers(1)); ok {
		t.Fatal("least recently used body survived eviction")
	}
	if _, ok := c.get(key(0), vers(0)); !ok {
		t.Fatal("recently used body evicted")
	}
	if c.bytes > c.budget || c.bytes != 80 {
		t.Fatalf("cache holds %d bytes, want 80 of %d", c.bytes, c.budget)
	}
	c.put(key(3), vers(3), body(101))
	if _, ok := c.get(key(3), vers(3)); ok || c.bytes != 80 {
		t.Fatalf("body over budget cached (%d bytes held)", c.bytes)
	}
	if _, ok := c.get(key(0), []int64{2, 0}); ok {
		t.Fatal("hit at a version the body was not rendered from")
	}

	if err := store.Publish(0, 2, 0, st); err != nil {
		t.Fatal(err)
	}
	c.put(key(5), vers(5), body(10))
	for k, e := range c.m {
		if !c.current(e.vers) {
			t.Fatalf("%+v kept at superseded versions %v", k, e.vers)
		}
	}
	if _, ok := c.get(key(0), vers(0)); ok {
		t.Fatal("body of a superseded version served")
	}
	if len(c.m) != 1 || c.bytes != 10 {
		t.Fatalf("after the publish: %d bodies, %d bytes; want 1, 10", len(c.m), c.bytes)
	}
}

// TestSamplersBuildOutsideLock: concurrent first requests for one shape
// all get the one stored sampler, and a cached shape is served while
// another shape's build is still running.
func TestSamplersBuildOutsideLock(t *testing.T) {
	const racers = 4
	m := mesh.New(2, 4)
	started := make(chan struct{}, racers+1) // one send per build
	release := make(chan struct{})
	sc := samplers{build: func(m *mesh.Mesh, nlon, nlat int) *core.Sampler {
		started <- struct{}{}
		<-release
		return core.NewSampler(m, nlon, nlat)
	}}

	got := make([]*core.Sampler, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sc.get(m, 16, 8)
		}(i)
	}
	for i := 0; i < racers; i++ {
		<-started // every racer missed the cache and is building
	}
	close(release)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("racer %d got a different sampler than racer 0", i)
		}
	}
	if again := sc.get(m, 16, 8); again != got[0] {
		t.Fatal("the stored sampler is not the one the racers returned")
	}

	// A slow build of a second shape holds no lock a cached shape needs.
	release = make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.get(m, 32, 16)
	}()
	<-started
	done := make(chan *core.Sampler)
	go func() { done <- sc.get(m, 16, 8) }()
	select {
	case sp := <-done:
		if sp != got[0] {
			t.Error("cached shape returned a different sampler")
		}
	case <-time.After(10 * time.Second):
		t.Error("cached shape blocked behind another shape's build")
	}
	close(release)
	wg.Wait()
}

// TestSamplersBoundedLRU: a stream of distinct shapes keeps at most
// maxSamplerShapes cached, a shape in steady use keeps its one sampler
// throughout, and a shape that fell out is rebuilt on its next request.
func TestSamplersBoundedLRU(t *testing.T) {
	m := mesh.New(2, 4)
	sc := samplers{build: func(*mesh.Mesh, int, int) *core.Sampler { return new(core.Sampler) }}
	hot := sc.get(m, 16, 8)
	first := sc.get(m, 100, 4)
	for i := 1; i < 100; i++ {
		sc.get(m, 100+i, 4)
		if sp := sc.get(m, 16, 8); sp != hot {
			t.Fatalf("after %d distinct shapes the shape in steady use got a new sampler", i)
		}
		if n := len(sc.cache); n > maxSamplerShapes {
			t.Fatalf("after %d distinct shapes %d are cached, cap %d", i, n, maxSamplerShapes)
		}
	}
	if sc.get(m, 100, 4) == first {
		t.Error("the least recently used shape was never evicted")
	}
}

// TestPointNodeMatchesBruteForce: /v1/point's node is the old
// brute-force scan's for seeded random points, the poles, cube edges
// and cube corners, and its body is the old renderer's.
func TestPointNodeMatchesBruteForce(t *testing.T) {
	sup := testSupervisor(t, 1, nil)
	if err := sup.RunCycles(1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sup, ServerConfig{})
	brute := func(lonDeg, latDeg float64) mesh.NodeRef {
		target := lonLatToCart(lonDeg*math.Pi/180, latDeg*math.Pi/180)
		bestD := math.Inf(1)
		var at mesh.NodeRef
		for ei, e := range sup.solver.Mesh.Elements {
			for n := range e.Pos {
				if d := mesh.GreatCircleDist(target, e.Pos[n]); d < bestD {
					bestD, at = d, mesh.NodeRef{Elem: ei, Idx: n}
				}
			}
		}
		return at
	}

	corner := math.Asin(1/math.Sqrt(3)) * 180 / math.Pi
	var probes [][2]float64
	for _, lon := range []float64{-360, -180, -90, 0, 37.5, 90, 180, 360} {
		probes = append(probes, [2]float64{lon, 90}, [2]float64{lon, -90})
	}
	for _, lon := range []float64{-135, -45, 45, 135} {
		probes = append(probes, [2]float64{lon, corner}, [2]float64{lon, -corner}, [2]float64{lon, 0}) // corners, equatorial edges
	}
	for _, lon := range []float64{-180, -90, 0, 90} {
		probes = append(probes, [2]float64{lon, 45}, [2]float64{lon, -45}) // polar-face edges
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 2000; i++ {
		probes = append(probes, [2]float64{-360 + 720*rng.Float64(), -90 + 180*rng.Float64()})
	}
	for _, p := range probes {
		if got, want := srv.nearest(p[0], p[1]), brute(p[0], p[1]); got != want {
			t.Fatalf("point (%g, %g): node %v, brute force %v", p[0], p[1], got, want)
		}
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	st, meta, err := sup.store.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	npsq := sup.solver.Cfg.Np * sup.solver.Cfg.Np
	for _, p := range probes[:40] {
		for _, f := range [][2]any{{"T", 3}, {"PS", 0}, {"U", 0}} {
			name, level := f[0].(string), f[1].(int)
			at := brute(p[0], p[1])
			el := sup.solver.Mesh.Elements[at.Elem]
			want := oracleEncode(t, map[string]any{
				"member": 0, "field": name, "level": level,
				"lon_deg": p[0], "lat_deg": p[1],
				"node_lon_deg": el.Lon[at.Idx] * 180 / math.Pi,
				"node_lat_deg": el.Lat[at.Idx] * 180 / math.Pi,
				"value":        oracleFieldSlice(sup.solver, st, name)[at.Elem][level*npsq+at.Idx],
				"step":         meta.Step, "sim_hours": meta.SimHours,
			})
			url := fmt.Sprintf("%s/v1/point?field=%s&level=%d&lon=%s&lat=%s", ts.URL, name, level,
				strconv.FormatFloat(p[0], 'g', -1, 64), strconv.FormatFloat(p[1], 'g', -1, 64))
			if resp, got := getBody(t, url); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: status %d, body differs from the oracle:\n got %s\nwant %s", url, resp.StatusCode, got, want)
			}
		}
	}
}
