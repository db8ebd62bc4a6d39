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
	"math/bits"
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

// histBuckets is the number of power-of-two duration buckets: bucket i counts
// observations in [2^(i-1), 2^i) microseconds, bucket 0 counts < 1µs.
const histBuckets = 32

// Histogram is an exponential-bucket duration histogram (power-of-two
// microsecond buckets), atomic like the counters.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for <1µs, k for [2^(k-1), 2^k)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the accumulated observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// ratioCenter is the bucket index a ratio of exactly 1.0 falls just above:
// RatioHistogram bucket i covers [2^(i-1-ratioCenter), 2^(i-ratioCenter)),
// so bucket ratioCenter+1 is [1, 2) and the range spans 2^-16 … 2^15 around
// a perfect estimate. Misestimations of 32768× or worse clamp into the edge
// buckets.
const ratioCenter = 16

// RatioHistogram is a dimensionless exponential-bucket histogram for
// estimate/actual ratios (and other log-scale factors). Buckets are powers
// of two centered on 1.0, so a perfect cost model piles everything into the
// [1, 2) bucket and drift is visible as mass sliding toward either tail.
// Atomic like the duration histograms.
type RatioHistogram struct {
	name     string
	count    atomic.Int64
	sumMilli atomic.Int64 // sum in thousandths, atomically accumulable
	buckets  [histBuckets]atomic.Int64
}

// Name returns the registered name.
func (h *RatioHistogram) Name() string { return h.name }

// Observe records one ratio. Non-positive ratios clamp into the lowest
// bucket (they mean "no meaningful estimate", not a measurement).
func (h *RatioHistogram) Observe(r float64) {
	h.count.Add(1)
	if r > 0 {
		h.sumMilli.Add(int64(r * 1000))
	}
	h.buckets[ratioBucketOf(r)].Add(1)
}

// ratioBucketOf maps a ratio to its bucket index: the first bucket whose
// upper edge exceeds it, the top bucket absorbing overflow.
func ratioBucketOf(r float64) int {
	if r <= 0 {
		return 0
	}
	for i := 0; i < histBuckets-1; i++ {
		if r < ratioEdge(i) {
			return i
		}
	}
	return histBuckets - 1
}

// ratioEdge returns the exclusive upper edge of ratio bucket i.
func ratioEdge(i int) float64 {
	exp := i - ratioCenter
	if exp >= 0 {
		return float64(int64(1) << uint(exp))
	}
	return 1 / float64(int64(1)<<uint(-exp))
}

// RatioBucketUpperEdge returns the exclusive upper edge of ratio bucket i;
// exporters must render the top bucket as +Inf.
func RatioBucketUpperEdge(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return ratioEdge(i)
}

// Count returns the number of observations.
func (h *RatioHistogram) Count() int64 { return h.count.Load() }

// Sum returns the accumulated observed ratio mass.
func (h *RatioHistogram) Sum() float64 { return float64(h.sumMilli.Load()) / 1000 }

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

// BucketUpperEdge returns the exclusive upper edge of histogram bucket i:
// 1µs for bucket 0, 2^i µs for bucket i ≥ 1. The top bucket
// (i = len(Buckets)-1) also absorbs every larger observation, so exporters
// must render its edge as +Inf rather than the value returned here.
func BucketUpperEdge(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []int64 // len histBuckets, bucket i = [2^(i-1), 2^i) µs
}

// RatioSnapshot is the frozen state of one ratio histogram.
type RatioSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []int64 // len histBuckets, edges from RatioBucketUpperEdge
}

// Snapshot is a frozen view of a registry: counters and gauges by name, plus
// histogram states. Snapshots subtract (Delta) so callers can meter intervals
// — per query, per phase, per figure point — out of one cumulative registry.
type Snapshot struct {
	Counters    map[string]int64
	Durations   map[string]time.Duration
	Gauges      map[string]int64
	FloatGauges map[string]float64
	Histograms  map[string]HistogramSnapshot
	Ratios      map[string]RatioSnapshot
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
		Ratios:      make(map[string]RatioSnapshot, len(s.Ratios)),
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
	for name, h := range s.Ratios {
		p := prev.Ratios[name]
		d := RatioSnapshot{
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
		out.Ratios[name] = d
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		d := HistogramSnapshot{
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
	ratios      map[string]*RatioHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		durations:   make(map[string]*DurationCounter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
		ratios:      make(map[string]*RatioHistogram),
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

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{name: name}
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

// Ratio returns the named ratio histogram, registering it on first use.
func (r *Registry) Ratio(name string) *RatioHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.ratios[name]; ok {
		return h
	}
	r.checkFresh(name, "ratio")
	h := &RatioHistogram{name: name}
	r.ratios[name] = h
	return h
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
		{"ratio", r.ratios[name] != nil},
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
		Ratios:      make(map[string]RatioSnapshot, len(r.ratios)),
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
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: make([]int64, histBuckets)}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	for name, h := range r.ratios {
		rs := RatioSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: make([]int64, histBuckets)}
		for i := range h.buckets {
			rs.Buckets[i] = h.buckets[i].Load()
		}
		s.Ratios[name] = rs
	}
	return s
}
