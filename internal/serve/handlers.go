package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/tc"
)

// Every error response is a typed JSON envelope:
//
//	{"error": {"code": "queue_full", "message": "..."}}
//
// so clients branch on stable codes, never on prose. Codes in use:
// bad_request, bad_deadline, unknown_field, unknown_member, queue_full,
// deadline_exceeded, no_snapshot, snapshot_torn, no_members, internal.

type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// render encodes v as a response body: the bytes json.Encoder writes,
// trailing newline included. It runs before any header is sent, so an
// encode failure (a NaN or Inf in a snapshot) still becomes a typed 500
// instead of an empty 200; it answers that 500 and returns false.
func render(w http.ResponseWriter, v any) ([]byte, bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", "rendering response: "+err.Error())
		return nil, false
	}
	return buf.Bytes(), true
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client went away
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	if body, ok := render(w, v); ok {
		writeBody(w, status, body)
	}
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errEnvelope{Error: errBody{Code: code, Message: msg}})
}

// Staleness headers. A response served from a snapshot that is not the
// live head of a running member carries:
//
//	X-Swcam-Stale: recovering | quarantined | age
//	X-Swcam-Staleness-Ms: <snapshot age in wall ms>
//
// Degraded answers are explicit, never silent.
const (
	headerStale       = "X-Swcam-Stale"
	headerStalenessMs = "X-Swcam-Staleness-Ms"
	headerMembers     = "X-Swcam-Ensemble-Members"
)

// staleness classifies a member's snapshot: reason is "" when fresh.
func (s *Server) staleness(m *Member, meta Meta) (reason string, ageMs int64) {
	age := time.Since(meta.Taken)
	ageMs = age.Milliseconds()
	switch m.State() {
	case MemberRecovering:
		return "recovering", ageMs
	case MemberQuarantined:
		return "quarantined", ageMs
	}
	if sa := s.sup.cfg.StaleAfter; sa > 0 && age > sa {
		return "age", ageMs
	}
	return "", ageMs
}

func setStaleHeaders(w http.ResponseWriter, reason string, ageMs int64) {
	if reason != "" {
		w.Header().Set(headerStale, reason)
		w.Header().Set(headerStalenessMs, strconv.FormatInt(ageMs, 10))
	}
}

// memberParam parses ?member= (default 0) and bounds it.
func (s *Server) memberParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("member")
	if raw == "" {
		return 0, nil
	}
	i, err := strconv.Atoi(raw)
	if err != nil || i < 0 || i >= len(s.sup.members) {
		return 0, fmt.Errorf("member must be in [0, %d)", len(s.sup.members))
	}
	return i, nil
}

// intParam parses an integer query parameter within [lo, hi], with a
// default when absent.
func intParam(r *http.Request, name string, def, lo, hi int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("%s must be an integer in [%d, %d]", name, lo, hi)
	}
	return v, nil
}

func floatParam(r *http.Request, name string, lo, hi float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("%s is required", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || v < lo || v > hi {
		return 0, fmt.Errorf("%s must be a number in [%g, %g]", name, lo, hi)
	}
	return v, nil
}

// fieldParams validates ?field= (default def) and ?level= (default the
// field's top level) against the model configuration, before any state
// is read, so a bad query is a 400 whatever the store holds. Returns
// ok=false after writing the error.
func (s *Server) fieldParams(w http.ResponseWriter, r *http.Request, def string) (name string, level int, ok bool) {
	name = r.URL.Query().Get("field")
	if name == "" {
		name = def
	}
	var nlev int
	switch name {
	case "U", "V", "T", "DP":
		nlev = s.sup.solver.Cfg.Nlev
	case "PHIS", "PS":
		nlev = 1
	default:
		writeErr(w, http.StatusBadRequest, "unknown_field",
			fmt.Sprintf("unknown field %q (U|V|T|DP|PHIS|PS)", name))
		return "", 0, false
	}
	level, err := intParam(r, "level", nlev-1, 0, nlev-1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return "", 0, false
	}
	return name, level, true
}

// gridParams parses ?nlon= and ?nlat= (default 72x36). Returns ok=false
// after writing the error.
func gridParams(w http.ResponseWriter, r *http.Request) (nlon, nlat int, ok bool) {
	nlon, err := intParam(r, "nlon", 72, 1, 2048)
	if err == nil {
		nlat, err = intParam(r, "nlat", 36, 1, 1024)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return 0, 0, false
	}
	return nlon, nlat, true
}

// fieldSlice returns a field fieldParams accepted: the state's backing
// array, or for PS one derived pseudo-level of surface pressure.
func fieldSlice(st *dycore.State, name string) [][]float64 {
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
	case "PS":
		npsq := st.NpSq()
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
	panic("serve: field " + name + " was not validated")
}

// readMember fetches the member's latest decoded snapshot, mapping
// store errors to HTTP responses. Returns ok=false after writing the
// error.
func (s *Server) readMember(w http.ResponseWriter, idx int) (*dycore.State, Meta, bool) {
	st, meta, err := s.sup.store.Read(idx)
	if err == nil {
		return st, meta, true
	}
	switch {
	case errors.Is(err, ErrNoSnapshot):
		writeErr(w, http.StatusNotFound, "no_snapshot",
			fmt.Sprintf("member %d has not published a snapshot yet", idx))
	case errors.Is(err, ErrTornSnapshot):
		writeErr(w, http.StatusServiceUnavailable, "snapshot_torn",
			fmt.Sprintf("member %d snapshot unreadable; retry", idx))
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
	return nil, Meta{}, false
}

// maxSamplerShapes bounds the sampler cache. A client may request any
// grid shape up to the validation limits, so the cache keeps only the
// most recently used shapes; a steady query mix uses far fewer.
const maxSamplerShapes = 8

// samplers caches lat-lon samplers per grid shape: building one searches
// the mesh for every grid point, so a steady query mix pays that once
// per shape. At most maxSamplerShapes are kept, least recently used
// evicted first.
type samplers struct {
	mu    sync.Mutex
	cache map[[2]int]*samplerEntry
	tick  uint64 // use clock: an entry's used is the tick of its last get

	// build, when set, replaces core.NewSampler — the test lever for a
	// slow build.
	build func(m *mesh.Mesh, nlon, nlat int) *core.Sampler
}

type samplerEntry struct {
	sp   *core.Sampler
	used uint64
}

// lookup returns the cached sampler for key and marks it used. The
// caller holds sc.mu.
func (sc *samplers) lookup(key [2]int) *core.Sampler {
	e, ok := sc.cache[key]
	if !ok {
		return nil
	}
	sc.tick++
	e.used = sc.tick
	return e.sp
}

func (sc *samplers) get(m *mesh.Mesh, nlon, nlat int) *core.Sampler {
	key := [2]int{nlon, nlat}
	sc.mu.Lock()
	sp := sc.lookup(key)
	sc.mu.Unlock()
	if sp != nil {
		return sp
	}
	// Build outside the lock, so a first request for a new shape never
	// stalls requests for cached ones. Concurrent first requests for one
	// shape each build; the first stored sampler wins.
	build := core.NewSampler
	if sc.build != nil {
		build = sc.build
	}
	sp = build(m, nlon, nlat)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if won := sc.lookup(key); won != nil {
		return won
	}
	if sc.cache == nil {
		sc.cache = map[[2]int]*samplerEntry{}
	}
	if len(sc.cache) >= maxSamplerShapes {
		var lru [2]int
		oldest := ^uint64(0)
		for k, e := range sc.cache {
			if e.used < oldest {
				lru, oldest = k, e.used
			}
		}
		delete(sc.cache, lru)
	}
	sc.tick++
	sc.cache[key] = &samplerEntry{sp: sp, used: sc.tick}
	return sp
}

// sample resamples one level of a field onto an nlon x nlat grid.
func (s *Server) sample(data [][]float64, level, nlon, nlat int) []float64 {
	grid := make([]float64, nlon*nlat)
	s.samplers.get(s.sup.solver.Mesh, nlon, nlat).Sample(data, level, s.sup.solver.Cfg.Np*s.sup.solver.Cfg.Np, grid)
	return grid
}

// GET /v1/config — the effective model and ensemble configuration, the
// contract a load generator or client calibrates itself against.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	c := s.sup.cfg
	writeJSON(w, http.StatusOK, map[string]any{
		"members":     c.Members,
		"ne":          c.Dycore.Ne,
		"np":          c.Dycore.Np,
		"nlev":        c.Dycore.Nlev,
		"qsize":       c.Dycore.Qsize,
		"dt_seconds":  c.Dycore.Dt,
		"cycle_steps": c.CycleSteps,
		"ranks":       c.Ranks,
		"ic":          c.IC,
		"recovery":    c.Recovery,
		"perturb_amp": c.PerturbAmp,
		"seed":        c.Seed,
	})
}

type memberStatus struct {
	Member    int     `json:"member"`
	State     string  `json:"state"`
	Restarts  int64   `json:"restarts"`
	LastError string  `json:"last_error,omitempty"`
	Version   int64   `json:"snapshot_version"`
	Step      int     `json:"snapshot_step"`
	SimHours  float64 `json:"sim_hours"`
	AgeMs     int64   `json:"snapshot_age_ms"`
}

// GET /v1/members — supervision state of every member.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	out := make([]memberStatus, 0, len(s.sup.members))
	for i, m := range s.sup.members {
		ms := memberStatus{
			Member:    i,
			State:     m.State().String(),
			Restarts:  m.Restarts(),
			LastError: m.LastError(),
		}
		if meta, ok := s.sup.store.Latest(i); ok {
			ms.Version = meta.Version
			ms.Step = meta.Step
			ms.SimHours = meta.SimHours
			ms.AgeMs = time.Since(meta.Taken).Milliseconds()
		}
		out = append(out, ms)
	}
	writeJSON(w, http.StatusOK, map[string]any{"members": out})
}

// GET /v1/field?member=&field=T&level=&nlon=&nlat= — a lat-lon slice of
// one member's field, sampled on a regular grid. The body is rendered
// once per snapshot version; the staleness headers are per request.
func (s *Server) handleField(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	nlon, nlat, ok := gridParams(w, r)
	if !ok {
		return
	}
	name, level, ok := s.fieldParams(w, r, "PS")
	if !ok {
		return
	}
	key := bodyKey{member: idx, field: name, level: level, nlon: nlon, nlat: nlat}
	vers := make([]int64, len(s.sup.members))
	var body []byte
	meta, ok := s.sup.store.Latest(idx)
	if ok {
		vers[idx] = meta.Version
		body, ok = s.bodies.get(key, vers)
	}
	if !ok {
		var st *dycore.State
		if st, meta, ok = s.readMember(w, idx); !ok {
			return
		}
		body, ok = render(w, map[string]any{
			"member": idx, "field": name, "level": level,
			"nlon": nlon, "nlat": nlat,
			"step": meta.Step, "sim_hours": meta.SimHours,
			"snapshot_version": meta.Version,
			"values":           s.sample(fieldSlice(st, name), level, nlon, nlat),
		})
		if !ok {
			return
		}
		vers[idx] = meta.Version
		s.bodies.put(key, vers, body)
	}
	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeBody(w, http.StatusOK, body)
}

// GET /v1/point?member=&field=&level=&lon=&lat= — point forecast at the
// nearest GLL node to (lon, lat) in degrees.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	lonDeg, err := floatParam(r, "lon", -360, 360)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	latDeg, err := floatParam(r, "lat", -90, 90)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	name, level, ok := s.fieldParams(w, r, "T")
	if !ok {
		return
	}
	st, meta, ok := s.readMember(w, idx)
	if !ok {
		return
	}

	at := s.nearest(lonDeg, latDeg)
	el := s.sup.solver.Mesh.Elements[at.Elem]
	body, ok := render(w, map[string]any{
		"member": idx, "field": name, "level": level,
		"lon_deg": lonDeg, "lat_deg": latDeg,
		"node_lon_deg": el.Lon[at.Idx] * 180 / math.Pi,
		"node_lat_deg": el.Lat[at.Idx] * 180 / math.Pi,
		"value":        fieldSlice(st, name)[at.Elem][level*st.NpSq()+at.Idx],
		"step":         meta.Step, "sim_hours": meta.SimHours,
	})
	if !ok {
		return
	}
	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeBody(w, http.StatusOK, body)
}

// nearest is the GLL node nearest (lon, lat) in degrees.
func (s *Server) nearest(lonDeg, latDeg float64) mesh.NodeRef {
	return s.nodes.Nearest(lonLatToCart(lonDeg*math.Pi/180, latDeg*math.Pi/180), mesh.NodeRef{Elem: -1})
}

// GET /v1/ensemble?field=&level=&nlon=&nlat= — pointwise mean and
// spread (population std dev) across every member that can currently
// contribute a snapshot. Quarantined members are excluded; if fewer
// than the full ensemble contribute, the X-Swcam-Ensemble-Members
// header reports the k/n subensemble and the response is marked stale
// if any contributor is. The body is rendered once per set of
// contributing versions; the headers are per request.
func (s *Server) handleEnsemble(w http.ResponseWriter, r *http.Request) {
	nlon, nlat, ok := gridParams(w, r)
	if !ok {
		return
	}
	name, level, ok := s.fieldParams(w, r, "PS")
	if !ok {
		return
	}
	key := bodyKey{member: -1, field: name, level: level, nlon: nlon, nlat: nlat}
	n := len(s.sup.members)
	vers, metas := make([]int64, n), make([]Meta, n)
	for i, m := range s.sup.members {
		if m.State() == MemberQuarantined {
			continue
		}
		if meta, ok := s.sup.store.Latest(i); ok {
			vers[i], metas[i] = meta.Version, meta
		}
	}
	body, ok := s.bodies.get(key, vers)
	if !ok {
		if body, ok = s.renderEnsemble(w, key, vers, metas); !ok {
			return
		}
	}
	contributors := 0
	worstReason := ""
	var worstAge int64
	for i, m := range s.sup.members {
		if vers[i] == 0 {
			continue
		}
		contributors++
		if reason, age := s.staleness(m, metas[i]); reason != "" {
			worstReason = reason
			if age > worstAge {
				worstAge = age
			}
		}
	}
	w.Header().Set(headerMembers, fmt.Sprintf("%d/%d", contributors, n))
	setStaleHeaders(w, worstReason, worstAge)
	writeBody(w, http.StatusOK, body)
}

// renderEnsemble reads every member that can contribute, renders and
// caches the ensemble body, and overwrites vers and metas with the
// snapshots read (version 0 for a member left out). Returns ok=false
// after writing the error.
func (s *Server) renderEnsemble(w http.ResponseWriter, key bodyKey, vers []int64, metas []Meta) ([]byte, bool) {
	size := key.nlon * key.nlat
	mean := make([]float64, size)
	m2 := make([]float64, size)
	contributors := 0
	minStep, maxStep := math.MaxInt32, -1
	for i, m := range s.sup.members {
		vers[i] = 0
		if m.State() == MemberQuarantined {
			// A quarantined member's frozen snapshot would poison the
			// statistics with an old state; the ensemble degrades to the
			// surviving subensemble instead.
			continue
		}
		st, meta, err := s.sup.store.Read(i)
		if err != nil {
			continue
		}
		vers[i], metas[i] = meta.Version, meta
		grid := s.sample(fieldSlice(st, key.field), key.level, key.nlon, key.nlat)
		contributors++
		// Welford accumulation: numerically stable spread in one pass.
		for g := range grid {
			d := grid[g] - mean[g]
			mean[g] += d / float64(contributors)
			m2[g] += d * (grid[g] - mean[g])
		}
		minStep = min(minStep, meta.Step)
		maxStep = max(maxStep, meta.Step)
	}
	if contributors == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no_members",
			"no member can currently contribute a snapshot")
		return nil, false
	}
	spread := m2 // reuse
	for g := range spread {
		spread[g] = math.Sqrt(m2[g] / float64(contributors))
	}
	body, ok := render(w, map[string]any{
		"field": key.field, "level": key.level,
		"nlon": key.nlon, "nlat": key.nlat,
		"members": contributors, "ensemble_size": len(s.sup.members),
		"min_step": minStep, "max_step": maxStep,
		"mean": mean, "spread": spread,
	})
	if ok {
		s.bodies.put(key, vers, body)
	}
	return body, ok
}

// GET /v1/track?member= — the member's TC track: every fix located so
// far plus the current one. Fixes are computed lazily per snapshot
// version and cached, so the track grows as the forecast advances.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	st, meta, ok := s.readMember(w, idx)
	if !ok {
		return
	}

	s.trackMu.Lock()
	hist := s.tracks[idx]
	if hist == nil || hist.version < meta.Version {
		var prev *tc.Fix
		if hist != nil && len(hist.fixes) > 0 {
			prev = &hist.fixes[len(hist.fixes)-1]
		}
		tr := tc.NewTracker()
		fix := tr.Locate(s.sup.solver, st, meta.SimHours, prev)
		warm := tr.WarmCore(s.sup.solver, st, fix)
		if hist == nil {
			hist = &trackHistory{}
			if s.tracks == nil {
				s.tracks = map[int]*trackHistory{}
			}
			s.tracks[idx] = hist
		}
		hist.version = meta.Version
		hist.fixes = append(hist.fixes, fix)
		hist.warm = warm
	}
	fixes := make([]tc.Fix, len(hist.fixes))
	copy(fixes, hist.fixes)
	warm := hist.warm
	s.trackMu.Unlock()

	body, ok := render(w, map[string]any{
		"member": idx, "warm_core": warm,
		"step": meta.Step, "sim_hours": meta.SimHours,
		"fixes": fixes,
	})
	if !ok {
		return
	}
	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeBody(w, http.StatusOK, body)
}

// GET /v1/metrics — the obs registry counters and gauges, for scraping.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeJSON(w, http.StatusOK, []any{})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WriteJSON(w)
}

type trackHistory struct {
	version int64
	fixes   []tc.Fix
	warm    bool
}

func lonLatToCart(lon, lat float64) mesh.Vec3 {
	cl := math.Cos(lat)
	return mesh.Vec3{cl * math.Cos(lon), cl * math.Sin(lon), math.Sin(lat)}
}
