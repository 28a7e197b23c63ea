// Package telemetry is the stdlib-only observability subsystem: a metrics
// registry (atomic counters, gauges and fixed-bucket histograms rendered in
// Prometheus text exposition format on GET /metrics), HTTP server
// middleware, and the debug server behind the CLIs' -metrics-addr flag.
//
// Everything is dependency-free by design (the repo rule: no modules beyond
// the standard library) and safe for concurrent use.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches Prometheus-style label pairs to a metric.
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative by the counter contract).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus mold:
// counts per upper bound, plus a running sum and total count.
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf bucket last
	counts []atomic.Uint64 // len(bounds)+1
	sum    Gauge           // reuses the CAS float accumulator
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// NewHistogram returns a standalone histogram with the given bucket upper
// bounds, not attached to any registry — for callers that need quantile
// estimates over their own observations (the perfprof phase profiler)
// without exporting a metric family. nil selects DefBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Quantile estimates the q-quantile (q in [0,1], clamped) of the observed
// values by linear interpolation inside the owning bucket — the same
// estimator as Prometheus's histogram_quantile. Edge semantics: an empty
// histogram returns 0; observations beyond the largest finite bound (the
// implicit +Inf bucket) are reported as that largest finite bound, since the
// bucket has no upper edge to interpolate toward.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if rank < cum {
				rank = cum
			}
			return lower + (bound-lower)*((rank-cum)/c)
		}
		cum += c
	}
	if n := len(h.bounds); n > 0 {
		return h.bounds[n-1]
	}
	return 0
}

// DefBuckets are the default latency buckets (seconds), matching the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metricKind discriminates the families of a registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every labeled instance of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	bounds  []float64 // histograms only
	mu      sync.Mutex
	metrics map[string]any // canonical label string -> *Counter | *Gauge | *Histogram
	keys    []string       // insertion-ordered label keys for stable output
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // insertion order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// DefaultRegistry is the process-wide registry the well-known metrics and
// the HTTP middleware default to.
var DefaultRegistry = NewRegistry()

func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, metrics: map[string]any{}}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// canonical renders labels as a deterministic Prometheus label block
// ("" when empty).
func canonical(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func (f *family) instance(labels Labels, build func() any) any {
	key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.metrics[key]
	if m == nil {
		m = build()
		f.metrics[key] = m
		f.keys = append(f.keys, key)
	}
	return m
}

// Counter returns (creating on first use) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.instance(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.instance(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram name{labels} with
// the family's fixed bucket upper bounds. Buckets are taken from the first
// registration of the family; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	f := r.family(name, help, kindHistogram, bounds)
	return f.instance(labels, func() any {
		return &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}).(*Histogram)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), families in registration order, instances in
// first-use order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		metrics := make([]any, len(keys))
		for i, k := range keys {
			metrics[i] = f.metrics[k]
		}
		f.mu.Unlock()
		if len(metrics) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for i, key := range keys {
			switch m := metrics[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
			case *Histogram:
				writeHistogram(w, f.name, key, m)
			}
		}
	}
}

func writeHistogram(w io.Writer, name, key string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(key, "le", formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(key, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.Count())
}

// withLabel appends one label pair to a canonical label block.
func withLabel(key, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
