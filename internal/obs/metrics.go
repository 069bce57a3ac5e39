package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// A dependency-free metrics registry rendering Prometheus text
// exposition format 0.0.4 — gauge functions and scrape-time families,
// all safe for concurrent use. Metric names may carry constant labels
// inline (`foo{state="idle"}`); series sharing a base name share one
// HELP/TYPE header, exactly as Prometheus expects.

// Registry holds a set of metrics and renders them on demand. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series []series // registration order; entries are never modified
}

// series is one registration: a full series name (base name plus any
// inline labels), or a family's base name.
type series struct {
	name, help string
	m          metric
}

// metric is anything that can render its sample lines.
type metric interface {
	metricType() string
	write(w *strings.Builder, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// baseName strips an inline label set: `foo_total{a="b"}` → `foo_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register adds a series under its full name, panicking on a duplicate
// or on a TYPE conflict within a base name — both are programming
// errors worth failing loudly at startup. The first registration of a
// base name supplies its HELP.
func (r *Registry) register(name, help string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := baseName(name)
	for _, s := range r.series {
		if s.name == name {
			panic(fmt.Sprintf("obs: duplicate metric %q", name))
		}
		if baseName(s.name) == base && s.m.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q: type %s conflicts with existing %s", name, m.metricType(), s.m.metricType()))
		}
	}
	r.series = append(r.series, series{name: name, help: help, m: m})
}

// Counter is a monotonically increasing int64, safe for concurrent
// use. It is not a registry series: its owner reads it with Value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Sample is one series of a family at one scrape: Suffix extends the
// family's base name (a summary's "_count"), Labels is the inline label
// set without braces (`run="0",quantile="0.5"`; "" for none).
type Sample struct {
	Suffix string
	Labels string
	Value  float64
}

// family lists its series at scrape time, for label sets that only
// exist then (one series per run, per worker).
type family struct {
	typ     string
	collect func() []Sample
}

func (f family) metricType() string { return f.typ }
func (f family) write(w *strings.Builder, name string) {
	for _, s := range f.collect() {
		if s.Labels == "" {
			fmt.Fprintf(w, "%s%s %s\n", name, s.Suffix, formatFloat(s.Value))
		} else {
			fmt.Fprintf(w, "%s%s{%s} %s\n", name, s.Suffix, s.Labels, formatFloat(s.Value))
		}
	}
}

// Family registers a base name of Prometheus type typ ("counter",
// "gauge", "summary") whose series collect returns at each scrape, in
// the order it lists them.
func (r *Registry) Family(name, typ, help string, collect func() []Sample) {
	r.register(name, help, family{typ: typ, collect: collect})
}

// GaugeFunc registers a gauge whose value is read from f at each scrape
// — for values that already live elsewhere (queue depth, live runs).
// The name may carry inline labels.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, family{typ: "gauge", collect: func() []Sample { return []Sample{{Value: f()}} }})
}

// WritePrometheus renders every registered series in text exposition
// format 0.0.4, in registration order, one HELP/TYPE header per base
// name. Scrape-time callbacks run outside the registry lock, so they
// may take any lock of their own.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	all := r.series
	r.mu.Unlock()
	seenHeader := make(map[string]bool)
	for _, s := range all {
		base := baseName(s.name)
		if !seenHeader[base] {
			seenHeader[base] = true
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, s.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, s.m.metricType())
		}
		s.m.write(w, s.name)
	}
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
