package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer records wall-clock spans from many goroutines (ranks) at once
// and exports them in the Chrome about://tracing JSON format. A nil
// Tracer is valid and records nothing; Begin on a nil Tracer returns a
// Span whose End is a no-op and costs no time.Now call.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	events []traceEvent
	procs  map[int]string // pid -> process name, for trace metadata
}

// traceEvent is one complete ("ph":"X") or instant ("ph":"i") event.
type traceEvent struct {
	Name  string // span name, e.g. "exec.euler_step"
	Cat   string // category, e.g. backend name or "comm"
	Pid   int    // rank
	Tid   int    // timeline within the rank
	Start time.Time
	Dur   time.Duration
	Inst  bool // instant event (no duration)
}

// NewTracer returns an enabled tracer whose timestamps are relative to
// now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now(), procs: make(map[int]string)}
}

// NameProcess labels a pid (rank) in the exported trace, shown as the
// process name in the viewer.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// Span is one open interval. The zero Span (from a nil tracer) is inert.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	pid   int
	tid   int
	start time.Time
}

// Begin opens a span on rank pid. End must be called on the same
// goroutine or any other — the tracer is locked only at End.
func (t *Tracer) Begin(pid int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, pid: pid, start: time.Now()}
}

// BeginTid is Begin with an explicit timeline id within the rank (used
// when several goroutines trace inside one rank, e.g. physics workers).
func (t *Tracer) BeginTid(pid, tid int, name, cat string) Span {
	s := t.Begin(pid, name, cat)
	s.tid = tid
	return s
}

// End closes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.events = append(s.t.events, traceEvent{
		Name: s.name, Cat: s.cat, Pid: s.pid, Tid: s.tid,
		Start: s.start, Dur: d,
	})
	s.t.mu.Unlock()
}

// Instant records a zero-duration marker event (a recovery decision, a
// checkpoint) on rank pid.
func (t *Tracer) Instant(pid int, name, cat string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Pid: pid, Start: now, Inst: true,
	})
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeEvent is the JSON shape of the Trace Event Format that
// chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace origin
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans as a Chrome trace JSON
// document. Events are sorted by (pid, start time) so the output is
// deterministic given deterministic spans.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		events := append([]traceEvent(nil), t.events...)
		procs := make(map[int]string, len(t.procs))
		for pid, name := range t.procs {
			procs[pid] = name
		}
		origin := t.origin
		t.mu.Unlock()

		sort.SliceStable(events, func(i, j int) bool {
			if events[i].Pid != events[j].Pid {
				return events[i].Pid < events[j].Pid
			}
			return events[i].Start.Before(events[j].Start)
		})
		pids := make([]int, 0, len(procs))
		for pid := range procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": procs[pid]},
			})
		}
		for _, e := range events {
			ts := float64(e.Start.Sub(origin)) / float64(time.Microsecond)
			ce := chromeEvent{Name: e.Name, Cat: e.Cat, Pid: e.Pid, Tid: e.Tid, Ts: ts}
			if e.Inst {
				ce.Ph = "i"
				ce.S = "p" // process-scoped instant
			} else {
				ce.Ph = "X"
				ce.Dur = float64(e.Dur) / float64(time.Microsecond)
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteChromeTraceFile writes the trace to path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	defer f.Close()
	if err := t.WriteChromeTrace(f); err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	return nil
}
