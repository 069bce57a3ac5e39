package obs

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// A dependency-free metrics registry rendering Prometheus text
// exposition format 0.0.4 — counters, gauge functions and histograms,
// all safe for concurrent use. Metric names may carry
// constant labels inline (`foo_total{event="expired"}`); series sharing
// a base name share one HELP/TYPE header, exactly as Prometheus
// expects.

// Registry holds a set of metrics and renders them on demand. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	order []string // registration order of full series names
	byKey map[string]metric
	helps map[string]string // base name → HELP string (first registration wins)
}

// metric is anything that can render its sample lines.
type metric interface {
	metricType() string
	sample() string // rendered value of one series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

// baseName strips an inline label set: `foo_total{a="b"}` → `foo_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register adds a series under its full name (base name + labels),
// panicking on a duplicate or on a TYPE conflict within a base name —
// both are programming errors worth failing loudly at startup.
func (r *Registry) register(name, help string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	base := baseName(name)
	for key, existing := range r.byKey {
		if baseName(key) == base && existing.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q: type %s conflicts with existing %s", name, m.metricType(), existing.metricType()))
		}
	}
	r.byKey[name] = m
	r.helpLocked(base, help)
	r.order = append(r.order, name)
}

func (r *Registry) helpLocked(base, help string) {
	if r.helps == nil {
		r.helps = make(map[string]string)
	}
	if _, ok := r.helps[base]; !ok {
		r.helps[base] = help
	}
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) sample() string     { return fmt.Sprintf("%d", c.v.Load()) }

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, c)
	return c
}

// gaugeFunc evaluates a callback at scrape time — for values that
// already live elsewhere (queue depth, cache size).
type gaugeFunc struct {
	f func() float64
}

func (g gaugeFunc) metricType() string { return "gauge" }
func (g gaugeFunc) sample() string     { return formatFloat(g.f()) }

// GaugeFunc registers a gauge whose value is read from f at each scrape.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, gaugeFunc{f})
}

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	upper   []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	name    string // full series name, for the _bucket/_sum/_count suffixes
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) sample() string     { return "" } // rendered specially

// Histogram registers a histogram with the given ascending upper
// bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)),
		name:   name,
	}
	r.register(name, help, h)
	return h
}

// WritePrometheus renders every registered series in text exposition
// format 0.0.4, in registration order, one HELP/TYPE header per base
// name.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seenHeader := make(map[string]bool)
	for _, name := range r.order {
		m := r.byKey[name]
		base := baseName(name)
		if !seenHeader[base] {
			seenHeader[base] = true
			if help := r.helps[base]; help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, m.metricType())
		}
		if h, ok := m.(*Histogram); ok {
			renderHistogram(w, name, h)
			continue
		}
		fmt.Fprintf(w, "%s %s\n", name, m.sample())
	}
}

// renderHistogram emits the _bucket/_sum/_count series, splicing the
// `le` label into any existing inline label set.
func renderHistogram(w *strings.Builder, name string, h *Histogram) {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i+1:len(name)-1]
	}
	cum := int64(0)
	series := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le=%q}`, base, le)
		}
		return fmt.Sprintf(`%s_bucket{%s,le=%q}`, base, labels, le)
	}
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s %d\n", series(formatFloat(ub)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", series("+Inf"), h.count.Load())
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.count.Load())
}

// formatFloat renders a float the way Prometheus clients do: integral
// values without an exponent, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
