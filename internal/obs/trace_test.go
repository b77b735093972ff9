package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTracerConcurrent hammers one tracer from many goroutines (the
// per-rank span sources) under -race: spans, instants, cross-goroutine
// End, process naming, and a concurrent export.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const ranks, per = 8, 50
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr.NameProcess(r, "rank")
			for i := 0; i < per; i++ {
				sp := tr.Begin(r, "exec.euler_step", "Athread")
				tr.Instant(r, "core.checkpoint", "model")
				sp.End()
			}
		}(r)
	}
	// Export concurrently with emission; content is checked after Wait.
	var scratch bytes.Buffer
	if err := tr.WriteChromeTrace(&scratch); err != nil {
		t.Fatalf("concurrent export: %v", err)
	}
	wg.Wait()

	if got, want := tr.Len(), ranks*per*2; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// ranks*per spans + instants, plus one process_name metadata per rank.
	if got, want := len(doc.TraceEvents), ranks*per*2+ranks; got != want {
		t.Fatalf("exported %d events, want %d", got, want)
	}
	lastPid := -1
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Pid < lastPid {
			t.Fatalf("events not sorted by pid: %d after %d", e.Pid, lastPid)
		}
		lastPid = e.Pid
	}
}

// TestNilTracer checks the nil-safety contract end to end: a nil tracer
// must accept every call, and its export must still be a loadable
// (empty) Chrome trace.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.NameProcess(0, "x")
	sp := tr.Begin(0, "a", "b")
	sp.End()
	tr.BeginTid(0, 1, "a", "b").End()
	tr.Instant(0, "a", "b")
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil export: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("nil export = %+v", doc)
	}
}

// TestChromeTraceGolden pins the exported JSON shape against a golden
// file. Timestamps and durations are wall-clock and so normalized (ts=0,
// dur=1) before comparison; everything else — field names, phase codes,
// metadata events, sort order, indentation — must match exactly.
// Regenerate with: go test ./internal/obs -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(0, "rank 0 (athread)")
	tr.NameProcess(1, "rank 1 (athread)")
	sp := tr.Begin(0, "exec.euler_step", "Athread")
	sp.End()
	tr.Instant(0, "core.checkpoint", "model")
	tr.Begin(1, "halo.dss_overlap", "comm").End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range doc.TraceEvents {
		doc.TraceEvents[i].Ts = 0
		if doc.TraceEvents[i].Ph == "X" {
			doc.TraceEvents[i].Dur = 1
		}
	}
	got, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON differs from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
