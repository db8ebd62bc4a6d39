// Package trace is the engine's observability layer: a metrics registry of
// named atomic counters, gauges, and histograms, plus a structured,
// virtual-time-aware tracer that records one span per operator execution and
// one event per cache/placement decision.
//
// The paper's robustness argument (Figures 10-13, 20) is about *when* and
// *where* operators run — which device, how long they waited, what they
// evicted, why they aborted. Run-wide counters cannot answer those questions;
// spans can. The layer is deterministic (every timestamp is virtual time from
// the simulator clock, never the wall clock) and allocation-light: spans live
// in a preallocated ring buffer, and with tracing disabled (a nil *Tracer)
// every emit is a nil-check and nothing else.
package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The simulator itself
// is single-threaded, but engines run from multiple test goroutines under
// -race (the chaos suite) and metrics may be aggregated while another
// engine's run is still in flight, so counters must be atomic.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// DurationCounter accumulates virtual time atomically (stored as
// nanoseconds). Virtual durations are measured in time.Duration even though
// they never touch the wall clock.
type DurationCounter struct {
	name string
	ns   atomic.Int64
}

// Name returns the registered name.
func (d *DurationCounter) Name() string { return d.name }

// Add accumulates dur.
func (d *DurationCounter) Add(dur time.Duration) { d.ns.Add(int64(dur)) }

// Load returns the accumulated duration.
func (d *DurationCounter) Load() time.Duration { return time.Duration(d.ns.Load()) }

// Gauge is an atomic instantaneous value (heap high-water mark, queue depth).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Max raises the gauge to v if v is larger (a monotonic high-water mark).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two buckets of every histogram.
const histBuckets = 32

// Scale fixes a histogram's unit and bucket edges when it is registered.
// Bucket i counts observations below UpperEdge(i) and at or above the edge
// of bucket i-1; bucket 0 also takes zero and below, the top bucket every
// observation past its lower edge.
type Scale string

const (
	// Durations observes time.Duration values in nanoseconds; bucket i's
	// upper edge is 2^i µs, so bucket 0 counts what took less than 1µs.
	Durations Scale = "duration"
	// Ratios observes dimensionless factors such as estimate/actual; bucket
	// i's upper edge is 2^(i-16), so a perfect cost model piles everything
	// into bucket 17, [1, 2), and drift shows as mass sliding toward either
	// tail. Misestimations of 32768× or worse clamp into the edge buckets.
	Ratios Scale = "ratio"
)

// base returns the upper edge of bucket 0 in the histogram's unit.
func (s Scale) base() float64 {
	if s == Ratios {
		return 0x1p-16
	}
	return float64(time.Microsecond)
}

// UpperEdge returns the exclusive upper edge of bucket i in the histogram's
// unit, i clamped to the buckets there are. The top bucket also absorbs every
// larger observation, so exporters render its edge as +Inf.
func (s Scale) UpperEdge(i int) float64 {
	return math.Ldexp(s.base(), min(max(i, 0), histBuckets-1))
}

// bucket maps an observation to its bucket index.
func (s Scale) bucket(v float64) int {
	switch {
	case !(v > 0):
		return 0
	case v >= s.UpperEdge(histBuckets-2):
		return histBuckets - 1
	}
	_, exp := math.Frexp(v / s.base()) // v/base in [2^(exp-1), 2^exp)
	return max(exp, 0)
}

// Histogram is a power-of-two bucket histogram on the scale it was
// registered with, atomic like the counters.
type Histogram struct {
	name    string
	scale   Scale
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, in the scale's unit; whole nanoseconds add exactly up to 2^53 (104 days)
	buckets [histBuckets]atomic.Int64
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one observation in the histogram's unit. Zero, negative and
// NaN observations count as zero: in the lowest bucket, adding nothing to
// the sum.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	h.buckets[h.scale.bucket(v)].Add(1)
	if !(v > 0) {
		return
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records one duration on a Durations histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the observations' total in the histogram's unit.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// FloatGauge is an atomic instantaneous float value (q-error of the last
// completed query, a drift factor). Stored as IEEE-754 bits.
type FloatGauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the registered name.
func (g *FloatGauge) Name() string { return g.name }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Max raises the gauge to v if v is larger (a monotonic high-water mark).
func (g *FloatGauge) Max(v float64) {
	for {
		cur := g.bits.Load()
		if v <= math.Float64frombits(cur) || g.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Scale   Scale   `json:"scale"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`     // in the scale's unit
	Buckets []int64 `json:"buckets"` // len histBuckets, edges from Scale.UpperEdge
}

// Snapshot is a frozen view of a registry: counters and gauges by name, plus
// histogram states. Snapshots subtract (Delta) so callers can meter intervals
// — per query, per phase, per figure point — out of one cumulative registry.
// Its JSON form is /debug/snapshot; durations encode as integer nanoseconds.
type Snapshot struct {
	Counters    map[string]int64             `json:"counters"`
	Durations   map[string]time.Duration     `json:"durations_ns"`
	Gauges      map[string]int64             `json:"gauges"`
	FloatGauges map[string]float64           `json:"float_gauges"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
}

// Delta returns the change from prev to s: counters, durations, and
// histograms subtract; gauges keep their current (instantaneous) value.
// Names absent from prev count from zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:    make(map[string]int64, len(s.Counters)),
		Durations:   make(map[string]time.Duration, len(s.Durations)),
		Gauges:      make(map[string]int64, len(s.Gauges)),
		FloatGauges: make(map[string]float64, len(s.FloatGauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Durations {
		out.Durations[name] = v - prev.Durations[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range s.FloatGauges {
		out.FloatGauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		d := HistogramSnapshot{
			Scale:   h.Scale,
			Count:   h.Count - p.Count,
			Sum:     h.Sum - p.Sum,
			Buckets: make([]int64, len(h.Buckets)),
		}
		for i, b := range h.Buckets {
			if i < len(p.Buckets) {
				b -= p.Buckets[i]
			}
			d.Buckets[i] = b
		}
		out.Histograms[name] = d
	}
	return out
}

// Registry holds named metrics. Registration is idempotent: asking for an
// existing name returns the existing metric, so multiple components can share
// a counter by name. Registration locks; the metrics themselves are lock-free.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	durations   map[string]*DurationCounter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		durations:   make(map[string]*DurationCounter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Duration returns the named duration counter, registering it on first use.
func (r *Registry) Duration(name string) *DurationCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.durations[name]; ok {
		return d
	}
	r.checkFresh(name, "duration")
	d := &DurationCounter{name: name}
	r.durations[name] = d
	return d
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, registering it on first use with
// the given scale. Asking again under another scale panics, like asking under
// another kind.
func (r *Registry) Histogram(name string, scale Scale) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if h.scale != scale {
			panic(fmt.Sprintf("trace: histogram %q already registered on the %s scale", name, h.scale))
		}
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{name: name, scale: scale}
	r.histograms[name] = h
	return h
}

// FloatGauge returns the named float gauge, registering it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.floatGauges[name]; ok {
		return g
	}
	r.checkFresh(name, "floatgauge")
	g := &FloatGauge{name: name}
	r.floatGauges[name] = g
	return g
}

// checkFresh panics when name is already registered under a different metric
// kind — always a naming bug, and silently returning a second metric would
// split the series.
func (r *Registry) checkFresh(name, kind string) {
	kinds := []struct {
		label string
		has   bool
	}{
		{"counter", r.counters[name] != nil},
		{"duration", r.durations[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"floatgauge", r.floatGauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
	}
	for _, k := range kinds {
		if k.has && k.label != kind {
			panic(fmt.Sprintf("trace: metric %q already registered as a %s", name, k.label))
		}
	}
}

// Snapshot freezes the current registry state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:    make(map[string]int64, len(r.counters)),
		Durations:   make(map[string]time.Duration, len(r.durations)),
		Gauges:      make(map[string]int64, len(r.gauges)),
		FloatGauges: make(map[string]float64, len(r.floatGauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, d := range r.durations {
		s.Durations[name] = d.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, g := range r.floatGauges {
		s.FloatGauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Scale: h.scale, Count: h.Count(), Sum: h.Sum(), Buckets: make([]int64, histBuckets)}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
