// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges, and fixed-bucket latency histograms, grouped into
// labeled families on a Registry with Prometheus-text exposition
// (expfmt.go), plus a run-lifecycle tracer emitting NDJSON span records
// (trace.go). Every layer of the serving stack — harness session, service,
// runners — registers its instruments here; DESIGN.md §10 is the metric
// catalog and the cardinality rules.
//
// Instruments are safe for concurrent use and never allocate on the update
// path; the Registry allocates only at registration and exposition time.
// Registration is idempotent: asking for an existing name with the same
// type, help, labels, and buckets returns the existing instrument, so any
// number of sessions or runners can share one Registry (an empty help string
// matches any existing family, for read-side lookups). A mismatched
// re-registration panics — that is a wiring bug, not a runtime condition.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, as exposed in the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets is the default latency histogram layout, in seconds: two
// points per decade from 1µs to 10s. Wide enough that one layout serves
// both sides of the measured dispatch gap (~1.3µs local vs ~48µs remote
// per warm call in the frozen BENCH_pr5.json) and whole-simulation wall
// times (ms to minutes); +Inf is implicit.
var DefBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5,
	1, 5, 10,
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: an unlabeled singleton, or a set of
// labeled children created on first use.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string  // label names; empty for unlabeled families
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]child // serialized label values -> instrument
	order    []string         // insertion order; sorted at exposition
}

// child is one concrete instrument plus the label values that select it.
type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge, or *Histogram
}

// register returns the named family, creating it on first use and
// verifying the signature on every later one.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		// An empty help string matches any existing family: read-side callers
		// (tests, stats endpoints) can look an instrument up without
		// repeating its help text.
		if f.typ != typ || (help != "" && f.help != help) || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]child),
	}
	r.families[name] = f
	return f
}

// get returns the child instrument for the given label values, creating it
// with mk on first use.
func (f *family) get(labelValues []string, mk func() any) any {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	m := mk()
	f.children[key] = child{labelValues: append([]string(nil), labelValues...), metric: m}
	f.order = append(f.order, key)
	return m
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns the registry's unlabeled counter with the given name,
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	f *family
}

// CounterVec returns the registry's counter family with the given name and
// label names, registering it on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label (use Counter)", name))
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// With returns the child counter for the given label values (one per label
// name, in registration order), creating it on first use. Hot paths should
// call With once and retain the child.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() any { return new(Counter) }).(*Counter)
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the registry's unlabeled gauge with the given name,
// registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.get(nil, func() any { return new(Gauge) }).(*Gauge)
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// Histogram is a fixed-bucket distribution. Bucket bounds are upper bounds
// in ascending order; an implicit +Inf bucket catches the rest. Updates are
// lock-free; Observe costs one bucket scan and three atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, non-cumulative; +Inf at len(bounds)
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram returns the registry's unlabeled histogram with the given name
// and bucket bounds (nil: DefBuckets), registering it on first use. Bounds
// must be sorted ascending; they are validated once at registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	b := checkBuckets(name, buckets)
	f := r.register(name, help, typeHistogram, nil, b)
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	f *family
}

// HistogramVec returns the registry's histogram family with the given name,
// bucket bounds (nil: DefBuckets), and label names, registering it on first
// use.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label (use Histogram)", name))
	}
	b := checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, b)}
}

// With returns the child histogram for the given label values, creating it
// on first use. Hot paths should call With once and retain the child.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		return DefBuckets
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q has no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic(fmt.Sprintf("obs: histogram %q declares +Inf explicitly; it is implicit", name))
	}
	return buckets
}
