// Package metrics is a small counter/gauge registry the subsystems publish
// operational numbers through, and the portal exposes at /api/metrics — the
// observability a lab administrator needs to see whether the cluster is
// earning its electricity ("the project has an expected impact on
// utilization of the computational resources provided by the cluster").
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters never decrease).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge computed at read time.
type GaugeFunc func() int64

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	funcs     map[string]GaugeFunc
	hists     map[string]*Histogram // keyed by name + rendered label
	histOrder []string
	// histByName indexes the same histograms as hists, keyed name →
	// labelValue → series, so the per-request HistogramLabeled lookup is two
	// map hits under a read lock instead of a formatted-key allocation.
	histByName map[string]map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		funcs:      make(map[string]GaugeFunc),
		hists:      make(map[string]*Histogram),
		histByName: make(map[string]map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter. The common
// already-registered case is a map hit under a read lock, so per-request
// counter bumps never serialize on the registry write lock.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok = r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok = r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterFunc installs a computed gauge; it replaces any previous function
// under the same name.
func (r *Registry) RegisterFunc(name string, fn GaugeFunc) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Histogram returns (registering on first use) the named histogram. Bounds
// are the ascending bucket upper bounds in the unit of the observed values;
// nil means DefBuckets. Bounds are fixed at first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramLabeled(name, "", "", bounds)
}

// HistogramLabeled returns (registering on first use) the histogram with one
// constant label, e.g. HistogramLabeled("http_request_seconds", "route",
// "GET /api/jobs", nil). Each distinct label value is its own series under
// the shared metric name, the way a Prometheus label works.
//
// The already-registered case — every request after the first on a route —
// is two map hits under a read lock with zero allocations; the formatted
// series key is only built when a new series is actually registered.
func (r *Registry) HistogramLabeled(name, labelKey, labelValue string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histByName[name][labelValue]
	r.mu.RUnlock()
	if ok {
		return h
	}
	label := ""
	if labelKey != "" {
		label = fmt.Sprintf("%s=%q", labelKey, labelValue)
	}
	key := name
	if label != "" {
		key = name + "{" + label + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok = r.hists[key]
	if !ok {
		h = newHistogram(name, label, bounds)
		r.hists[key] = h
		r.histOrder = append(r.histOrder, key)
	}
	byValue, ok := r.histByName[name]
	if !ok {
		byValue = make(map[string]*Histogram)
		r.histByName[name] = byValue
	}
	byValue[labelValue] = h
	return h
}

// Histograms returns every registered histogram in registration order.
func (r *Registry) Histograms() []*Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Histogram, 0, len(r.histOrder))
	for _, k := range r.histOrder {
		out = append(out, r.hists[k])
	}
	return out
}

// Snapshot returns all metric values by name.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+len(r.funcs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, fn := range r.funcs {
		out[name] = fn()
	}
	return out
}

// HistogramSummary is the JSON form of one histogram series.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// WriteJSON writes the snapshot as a JSON object: counters and gauges as
// plain numbers, histograms as {count, sum, p50, p90, p99} objects keyed by
// name (plus label, when present).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	merged := make(map[string]interface{}, len(snap))
	for k, v := range snap {
		merged[k] = v
	}
	r.mu.RLock()
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()
	for k, h := range hists {
		merged[k] = HistogramSummary{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(merged) // json sorts object keys
}

// WritePrometheus writes the whole registry in the Prometheus text
// exposition format: counters and gauges as typed single values, histograms
// as the conventional _bucket{le=...}/_sum/_count triples with cumulative
// bucket counts. Only the standard library is involved.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges)+len(r.funcs))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	funcs := make(map[string]GaugeFunc, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	histKeys := append([]string(nil), r.histOrder...)
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()
	for name, fn := range funcs {
		gauges[name] = fn() // evaluated outside the registry lock
	}

	for _, m := range []struct {
		kind   string
		values map[string]int64
	}{{"counter", counters}, {"gauge", gauges}} {
		keys := make([]string, 0, len(m.values))
		for k := range m.values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", k, m.kind, k, m.values[k]); err != nil {
				return err
			}
		}
	}

	// Histograms grouped by metric name: one TYPE line per name, then every
	// labelled series.
	typed := make(map[string]bool)
	for _, key := range histKeys {
		h := hists[key]
		if !typed[h.name] {
			typed[h.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
				return err
			}
		}
		counts, count, sum := h.snapshot()
		var cum uint64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			labels := fmt.Sprintf("le=%q", le)
			if h.label != "" {
				labels = h.label + "," + labels
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", h.name, labels, cum); err != nil {
				return err
			}
		}
		suffix := ""
		if h.label != "" {
			suffix = "{" + h.label + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			h.name, suffix, formatFloat(sum), h.name, suffix, count); err != nil {
			return err
		}
	}
	return nil
}

// Default is the process-wide registry used when subsystems are not given
// one explicitly.
var Default = NewRegistry()
