package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics store. Metric names are dot-separated
// and lowercase, prefixed with the owning subsystem (sw.dma.bytes,
// mpirt.send.bytes, halo.pack.bytes, exec.flops.vector, core.recovery
// .rollbacks — see DESIGN.md, "Observability"). A nil Registry is valid:
// lookups return nil metrics whose methods are no-ops, so instrumented
// code needs no guards.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric, safe for
// concurrent use across ranks. The nil Counter accepts and discards.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric tracking the latest value and the maximum
// ever set (LDM high-water marks are max-gauges by nature).
type Gauge struct {
	mu   sync.Mutex
	last float64
	max  float64
	set  bool
}

// Set records a value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.last = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
	g.mu.Unlock()
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Max returns the high-water mark.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Histogram accumulates a distribution in power-of-two buckets (bucket i
// counts values in [2^i, 2^(i+1))), plus count/sum/min/max — enough for
// message-size and span-length distributions without configuration.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [64]int64
}

// Observe records one sample (negative samples clamp to bucket 0).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Floor(math.Log2(v)))
	if b < 0 {
		b = 0
	}
	if b > 63 {
		b = 63
	}
	return b
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value without creating it.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// metricJSON is the serialized form of one registry entry.
type metricJSON struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"` // counter | gauge | histogram
	Value float64 `json:"value"`
	Max   float64 `json:"max,omitempty"`   // gauges
	Count int64   `json:"count,omitempty"` // histograms
	Mean  float64 `json:"mean,omitempty"`  // histograms
	Min   float64 `json:"min,omitempty"`   // histograms
}

// snapshot returns every metric in name order.
func (r *Registry) snapshot() []metricJSON {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]metricJSON, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, metricJSON{Name: name, Type: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, metricJSON{Name: name, Type: "gauge", Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		m := metricJSON{Name: name, Type: "histogram", Count: h.count, Min: h.min, Max: h.max}
		if h.count > 0 {
			m.Mean = h.sum / float64(h.count)
			m.Value = h.sum
		}
		h.mu.Unlock()
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText dumps the registry as aligned "name value" lines in name
// order.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.snapshot() {
		var err error
		switch m.Type {
		case "counter":
			_, err = fmt.Fprintf(w, "%-32s %d\n", m.Name, int64(m.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "%-32s %g (max %g)\n", m.Name, m.Value, m.Max)
		default:
			_, err = fmt.Fprintf(w, "%-32s n=%d mean=%g min=%g max=%g\n",
				m.Name, m.Count, m.Mean, m.Min, m.Max)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON dumps the registry as a JSON array of metrics in name order.
func (r *Registry) WriteJSON(w io.Writer) error {
	return EncodeJSON(w, r.snapshot())
}

// EncodeJSON writes v as indented JSON with a trailing newline — the
// one JSON encoder every obs output format (registry dumps, StepReport,
// benchtab -json) shares.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
