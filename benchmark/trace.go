package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one harness-side interval around a call into a layer's
// public functions. The harness is single-threaded between such calls,
// so the open-span stack gives every span its parent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = workload root's parent (none)
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until flush. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indices into spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Workload: t.workload, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part of it covered
// by its direct children (children of one parent never overlap here,
// but overlapping intervals are merged anyway so the arithmetic holds
// for any input).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, end := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := c.StartNs, c.EndNs
			if lo < end {
				lo = end
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// layerOf maps a span name to the layer whose self time it adds to:
// "replay.halo.exchange" -> halo, "setup.mesh" -> setup, "core.run" ->
// core, "rep[3]" -> rep.
func layerOf(name string) string {
	name = strings.TrimPrefix(name, "replay.")
	if i := strings.IndexAny(name, ".["); i > 0 {
		return name[:i]
	}
	return name
}

// layersFile is layers.json: self time per layer plus the per-layer
// metrics of the same traced pass.
type layersFile struct {
	Workload string             `json:"workload"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    int                `json:"spans"`
	Metrics  map[string]metric  `json:"metrics"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// flush writes <dir>/<workload>.trace.json (Chrome trace-event format,
// loadable in chrome://tracing and ui.perfetto.dev) and
// <dir>/<workload>.layers.json.
func (t *tracer) flush(dir string, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	if err := writeJSON(dir+"/"+t.workload+".trace.json", map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	lf := layersFile{Workload: t.workload, SelfMs: map[string]float64{}, Spans: len(t.spans), Metrics: metrics}
	for id, ns := range selfTimes(t.spans) {
		lf.SelfMs[layerOf(t.spans[id-1].Name)] += float64(ns) / 1e6
	}
	return writeJSON(dir+"/"+t.workload+".layers.json", lf)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
