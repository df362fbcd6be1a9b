// Package obs is the observability layer of the deferred-cleansing
// engine: a lock-cheap metrics registry (counters, gauges, and
// fixed-bucket float histograms, optionally labeled), Prometheus-text and
// JSON exposition over the registry, and a per-query structured tracing
// model (QueryID plus a span tree).
//
// The package is engine-agnostic, like govern: it knows nothing about
// plans, rows, or rewrites. The serving layer owns one Registry per DB,
// registers its metric families once at Open, and publishes into them on
// the query path; components that already keep their own atomic counters
// (the plan cache, the admission controller, the govern accountant)
// are exposed through func-backed collectors that read those counters at
// scrape time, so every number has exactly one home.
//
// Hot-path cost model: registration and labeled-child lookup take a
// mutex, but both happen once per family (or once per query for a
// handful of labels); Observe/Add/Inc on an already-resolved metric are
// one or two atomic operations and allocate nothing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// QueryID identifies one query execution for traces, the slow-query log,
// and support tooling. IDs are unique within a process.
type QueryID uint64

// String renders the ID the way logs and traces print it.
func (id QueryID) String() string { return fmt.Sprintf("q-%08d", uint64(id)) }

var queryIDs atomic.Uint64

// NextQueryID allocates a process-unique query ID.
func NextQueryID() QueryID { return QueryID(queryIDs.Add(1)) }

// DefLatencyBuckets are the fixed histogram bounds for latency metrics,
// in seconds: 100µs to 10s, roughly logarithmic. Chosen so the paper's
// workload (sub-millisecond cache hits up to multi-second cold windowed
// cleansing at high scale) spreads across the range.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefBytesBuckets are the fixed histogram bounds for memory metrics, in
// bytes: 4KiB to 1GiB in powers of four.
var DefBytesBuckets = []float64{
	4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use but callers normally obtain one from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (which may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket float histogram. Buckets are cumulative at
// exposition time (Prometheus `le` semantics); internally each bucket
// count and the running sum are individual atomics, so Observe is
// lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit at the end
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns per-bucket (non-cumulative) counts aligned to bounds,
// with the +Inf bucket last.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// metric kinds, also the `# TYPE` names in the Prometheus exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// labelSep joins the values of a two-label family into one child key.
// NUL cannot appear in a metric label value, so the join is unambiguous
// and composite keys sort by first label then second.
const labelSep = "\x00"

// family is one registered metric family: a name, help text, a kind, and
// either a single unlabeled metric, a set of labeled children, or a
// read-at-scrape-time func.
type family struct {
	name, help, kind string
	label            string // first label name for vec families; "" otherwise
	label2           string // second label name for two-label families
	buckets          []float64

	mu       sync.Mutex
	children map[string]any // label value -> *Counter | *Gauge | *Histogram
	single   any            // unlabeled *Counter | *Gauge | *Histogram
	fn       func() float64 // func-backed counter/gauge; nil otherwise
}

// child returns (creating if needed) the labeled metric for val.
func (f *family) child(val string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[val]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	}
	f.children[val] = m
	return m
}

// labelValues returns the sorted label values currently present.
func (f *family) labelValues() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := make([]string, 0, len(f.children))
	for v := range f.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the counter for one label value, creating it on first use.
// Callers on hot paths should resolve once and keep the *Counter.
func (v *CounterVec) With(label string) *Counter { return v.f.child(label).(*Counter) }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(label string) *Gauge { return v.f.child(label).(*Gauge) }

// CounterVec2 is a counter family keyed by two labels.
type CounterVec2 struct{ f *family }

// With returns the counter for one (v1, v2) label pair, creating it on
// first use. Hot paths should resolve once per pair and keep the
// *Counter.
func (v *CounterVec2) With(v1, v2 string) *Counter {
	return v.f.child(v1 + labelSep + v2).(*Counter)
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value, creating it on first
// use.
func (v *HistogramVec) With(label string) *Histogram { return v.f.child(label).(*Histogram) }

// Registry holds metric families and renders them (see expo.go). One
// registry serves one DB; families are registered once at Open and the
// registry is safe for concurrent registration, publication, and scraping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order is not meaningful; expo sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// add registers a family, panicking on a duplicate name — metric names
// are program constants, so a collision is a bug, not an input error.
func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	r.families[f.name] = f
	r.order = append(r.order, f.name)
	return f
}

// sorted returns the families in name order.
func (r *Registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.families[n]
	}
	return out
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, kind: kindCounter, single: c})
	return c
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	f := r.add(&family{name: name, help: help, kind: kindCounter, label: label, children: map[string]any{}})
	return &CounterVec{f: f}
}

// CounterVec2 registers a counter family keyed by two labels (e.g.
// route and status class for HTTP request counts).
func (r *Registry) CounterVec2(name, help, label1, label2 string) *CounterVec2 {
	f := r.add(&family{name: name, help: help, kind: kindCounter, label: label1, label2: label2, children: map[string]any{}})
	return &CounterVec2{f: f}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that already keep their own
// monotonic counters (plan cache, admission control).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: kindCounter, fn: fn})
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, kind: kindGauge, single: g})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: kindGauge, fn: fn})
}

// Histogram registers and returns an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.add(&family{name: name, help: help, kind: kindHistogram, buckets: buckets, single: h})
	return h
}

// HistogramVec registers a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	f := r.add(&family{name: name, help: help, kind: kindHistogram, label: label, buckets: buckets, children: map[string]any{}})
	return &HistogramVec{f: f}
}

// lookup finds a family's metric for one label value ("" for unlabeled
// families). Func-backed families return (nil, false).
func (r *Registry) lookup(name, labelVal string) (any, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.fn != nil {
		return nil, false
	}
	if f.label == "" {
		return f.single, f.single != nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[labelVal]
	return m, ok
}

// CounterValue reads one counter-family value by label ("" for an
// unlabeled or func-backed family). Tests and the shell use it; it is not
// a hot path.
func (r *Registry) CounterValue(name, labelVal string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.kind != kindCounter {
		return 0, false
	}
	if f.fn != nil {
		return f.fn(), true
	}
	m, ok := r.lookup(name, labelVal)
	if !ok {
		return 0, false
	}
	return float64(m.(*Counter).Value()), true
}

// CounterValue2 reads one two-label counter-family value by its label
// pair. Tests use it; it is not a hot path.
func (r *Registry) CounterValue2(name, v1, v2 string) (float64, bool) {
	return r.CounterValue(name, v1+labelSep+v2)
}

// HistogramStats reads one histogram's count and sum by label.
func (r *Registry) HistogramStats(name, labelVal string) (count uint64, sum float64, ok bool) {
	m, found := r.lookup(name, labelVal)
	if !found {
		return 0, 0, false
	}
	h, isH := m.(*Histogram)
	if !isH {
		return 0, 0, false
	}
	return h.Count(), h.Sum(), true
}
