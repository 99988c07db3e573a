// Package obs is the library's stdlib-only observability substrate: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms, all
// exposable in the Prometheus text format) and a lightweight span API for
// per-request stage tracing (see trace.go).
//
// The package is intentionally zero-dependency — the Prometheus text
// exposition format is hand-rolled (it is a stable, line-oriented format
// many Go projects emit without the client library).  Metric values are
// lock-free on the hot path: counters and histogram buckets are atomics, and
// label lookups take a read lock only (a write lock once per new label set).
//
// Conventions (DESIGN.md §11): every metric is prefixed `bedom_`, durations
// are histograms in seconds named `*_seconds`, and monotone counts are
// `*_total`.  One Registry must not be shared by two engines — the engine
// registers per-engine gauges whose closures would otherwise shadow each
// other; cmd/domserved wires its single engine, the simulator and the HTTP
// layer to obs.Default so `GET /metrics` is one scrape.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram buckets, in seconds: 100µs to
// 10s, roughly logarithmic.  They bracket the library's spread — warm cached
// queries (~100µs) to cold million-vertex substrate builds (seconds).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are exponential buckets for word/byte-count histograms.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}

var (
	defaultRegistry    = NewRegistry()
	defaultRuntimeOnce sync.Once
)

// Default returns the process-wide registry (what cmd/domserved exposes on
// GET /metrics and what internal/dist records simulator runs into).  The Go
// runtime metrics (goroutines, heap, GC pauses — see runtime.go) are
// registered on it on first use, so every /metrics scrape of the default
// registry covers process health.
func Default() *Registry {
	defaultRuntimeOnce.Do(func() { RegisterRuntimeMetrics(defaultRegistry) })
	return defaultRegistry
}

// metricType discriminates the exposition families.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families and writes them in the Prometheus text
// format.  All methods are safe for concurrent use.  Re-requesting a family
// by name is idempotent and returns the existing family; a name re-requested
// with a different type or label set panics (metric registration is an
// init-path programmer error, like solver.Register).
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	hooks []func()
}

// OnScrape registers fn to run at the start of every WritePrometheus call,
// before the families are snapshotted.  It is the bridge for sampled
// metrics that cannot be modeled as a GaugeFunc — e.g. feeding the GC pause
// histogram from runtime.MemStats exactly once per scrape.  Hooks run
// sequentially in registration order and must not block.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one exposition family: a name, HELP/TYPE metadata, the label
// names, and the live series keyed by their label values.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	fn     func() float64 // gauge families backed by a callback (no labels)
}

// series is one (label values → value) instance of a family.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// seriesKeySep joins label values into map keys; it cannot appear in a label
// value without escaping mattering for the key (values containing the
// separator byte are legal but vanishingly rare; collisions would only merge
// two series' accounting, never corrupt memory).
const seriesKeySep = "\x1f"

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// getFamily returns the family registered under name, creating it on first
// use.  Type or label-shape mismatches panic.
func (r *Registry) getFamily(name, help string, typ metricType, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.fams[name]
		if !ok {
			f = &family{
				name:    name,
				help:    help,
				typ:     typ,
				labels:  append([]string(nil), labels...),
				buckets: normaliseBuckets(buckets),
				series:  make(map[string]*series),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d label(s), was %s with %d",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with label %q, was %q", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// normaliseBuckets sorts, deduplicates and strips a trailing +Inf (the
// overflow bucket is implicit).
func normaliseBuckets(b []float64) []float64 {
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	dst := out[:0]
	for _, v := range out {
		if math.IsInf(v, +1) {
			continue
		}
		if len(dst) > 0 && dst[len(dst)-1] == v {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// get returns the series for the given label values, creating it on demand.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := ""
	if len(values) > 0 {
		for i, v := range values {
			if i > 0 {
				key += seriesKeySep
			}
			key += v
		}
	}
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns (registering on first use) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, typeCounter, nil, nil).get(nil).c
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// CounterVec returns (registering on first use) the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.getFamily(name, help, typeCounter, nil, labels)}
}

// With returns the counter for the given label values (created on demand).
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// LabeledCount is one series of a CounterVec snapshot.
type LabeledCount struct {
	Labels []string
	Value  uint64
}

// Counts snapshots every series of the family, sorted by label values.  The
// engine derives its JSON per-kind/per-solver stats from this, so the JSON
// and Prometheus views read the same underlying counters.
func (v *CounterVec) Counts() []LabeledCount {
	v.f.mu.RLock()
	out := make([]LabeledCount, 0, len(v.f.series))
	for _, s := range v.f.series {
		out = append(out, LabeledCount{Labels: s.labelValues, Value: s.c.Value()})
	}
	v.f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Labels, out[j].Labels
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// --- Gauge -----------------------------------------------------------------

// Gauge is an atomic float64 gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns (registering on first use) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, typeGauge, nil, nil).get(nil).g
}

// GaugeFunc registers a gauge evaluated at scrape time.  Re-registering the
// name replaces the callback (last registrant wins — the pattern is one
// long-lived owner per process, e.g. the domserved engine).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// --- Histogram -------------------------------------------------------------

// Histogram is a fixed-bucket latency/size histogram: per-bucket atomic
// counters (non-cumulative internally; cumulated at exposition), an atomic
// float sum and an observation count.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; the last is the +Inf overflow
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is ≥ v (Prometheus `le` semantics);
	// len(upper) means the +Inf overflow bucket.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Histogram returns (registering on first use) the unlabeled histogram name.
// nil buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.getFamily(name, help, typeHistogram, buckets, nil).get(nil).h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns (registering on first use) the labeled histogram
// family.  nil buckets select DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.getFamily(name, help, typeHistogram, buckets, labels)}
}

// With returns the histogram for the given label values (created on demand).
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// TotalSum sums the observed values across every series of the family.
func (v *HistogramVec) TotalSum() float64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	var t float64
	for _, s := range v.f.series {
		t += s.h.Sum()
	}
	return t
}

// atomicFloat is an atomically-updated float64 (CAS on the bit pattern).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
