package trace

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndDuration(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("Aborts")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	if r.Counter("Aborts") != c {
		t.Fatal("re-registering must return the same counter")
	}
	d := r.Duration("WastedTime")
	d.Add(3 * time.Millisecond)
	d.Add(2 * time.Millisecond)
	if d.Load() != 5*time.Millisecond {
		t.Fatalf("duration = %v, want 5ms", d.Load())
	}
	if c.Name() != "Aborts" || d.Name() != "WastedTime" {
		t.Fatalf("names: %q %q", c.Name(), d.Name())
	}
}

func TestGaugeMax(t *testing.T) {
	g := NewRegistry().Gauge("HeapHighWater")
	g.Set(10)
	g.Max(5)
	if g.Load() != 10 {
		t.Fatalf("Max lowered the gauge to %d", g.Load())
	}
	g.Max(20)
	if g.Load() != 20 {
		t.Fatalf("gauge = %d, want 20", g.Load())
	}
}

func TestHistogram(t *testing.T) {
	h := NewRegistry().Histogram("OpRuntimeGPU", Durations)
	for _, d := range []time.Duration{500 * time.Nanosecond, time.Microsecond,
		3 * time.Microsecond, 100 * time.Microsecond, 2 * time.Millisecond} {
		h.ObserveDuration(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 500*time.Nanosecond + time.Microsecond + 3*time.Microsecond +
		100*time.Microsecond + 2*time.Millisecond
	if h.Sum() != float64(wantSum) {
		t.Fatalf("sum = %v ns, want %v", h.Sum(), wantSum)
	}
	h.ObserveDuration(-time.Second) // clamps to zero, never a negative bucket
	if h.Count() != 6 || h.Sum() != float64(wantSum) {
		t.Fatalf("negative observation: count %d, sum %v ns", h.Count(), h.Sum())
	}
}

// A Ratios histogram sums its observations exactly: three 0.0004 ratios add
// 0.0012, not the 0 a sum kept in thousandths truncates them to.
func TestRatiosHistogramSumsExactly(t *testing.T) {
	h := NewRegistry().Histogram("EstimateRowsRatio", Ratios)
	var want float64
	for range 3 {
		h.Observe(0.0004)
		want += 0.0004
	}
	h.Observe(0)  // no meaningful estimate: counted, adds nothing
	h.Observe(-1) // likewise
	if h.Count() != 5 || h.Sum() != want {
		t.Fatalf("count %d, sum %v, want 5 and %v", h.Count(), h.Sum(), want)
	}
}

// TestHistogramQuantileEdges pins what a quantile read off the exposed
// buckets is bounded by: the upper edge of the lowest non-empty bucket bounds
// the minimum, that of the highest the maximum, a single observation fills
// one bucket, and an observation beyond the largest edge clamps into the top
// bucket (which the exporter renders as +Inf).
func TestHistogramQuantileEdges(t *testing.T) {
	// edges observes ds and reads the snapshot back: the upper edges of the
	// lowest and highest non-empty buckets, and how many buckets are in use.
	edges := func(ds ...time.Duration) (lo, hi time.Duration, used int) {
		r := NewRegistry()
		h := r.Histogram("h", Durations)
		for _, d := range ds {
			h.ObserveDuration(d)
		}
		for i, n := range r.Snapshot().Histograms["h"].Buckets {
			if n == 0 {
				continue
			}
			if used++; used == 1 {
				lo = time.Duration(Durations.UpperEdge(i))
			}
			hi = time.Duration(Durations.UpperEdge(i))
		}
		return lo, hi, used
	}
	t.Run("empty", func(t *testing.T) {
		if _, _, used := edges(); used != 0 {
			t.Fatalf("an empty histogram exposes %d non-empty buckets", used)
		}
	})
	t.Run("q0-bounds-minimum", func(t *testing.T) {
		// 3µs lies in bucket 2: [2µs, 4µs).
		if lo, _, _ := edges(3*time.Microsecond, time.Second); lo != 4*time.Microsecond {
			t.Fatalf("lowest edge = %v, want the minimum's bucket edge 4µs", lo)
		}
	})
	t.Run("q1-bounds-maximum", func(t *testing.T) {
		// 100µs lies in bucket 7: [64µs, 128µs).
		if _, hi, _ := edges(time.Microsecond, 100*time.Microsecond); hi != 128*time.Microsecond {
			t.Fatalf("highest edge = %v, want the maximum's bucket edge 128µs", hi)
		}
	})
	t.Run("single-observation", func(t *testing.T) {
		// 10µs lies in bucket 4: [8µs, 16µs).
		if lo, hi, used := edges(10 * time.Microsecond); lo != 16*time.Microsecond || hi != lo || used != 1 {
			t.Fatalf("edges = %v, %v over %d buckets, want 16µs for every quantile", lo, hi, used)
		}
	})
	t.Run("saturated-top-bucket", func(t *testing.T) {
		// Far beyond the largest edge: clamps into the top bucket.
		if lo, _, _ := edges(1 << 62); lo != time.Duration(Durations.UpperEdge(histBuckets-1)) {
			t.Fatalf("edge = %v, want the clamped top edge %v", lo, Durations.UpperEdge(histBuckets-1))
		}
	})
}

func TestBucketUpperEdge(t *testing.T) {
	cases := []struct {
		s    Scale
		i    int
		want float64
	}{
		{Durations, -1, float64(time.Microsecond)},
		{Durations, 0, float64(time.Microsecond)},
		{Durations, 1, float64(2 * time.Microsecond)},
		{Durations, 7, float64(128 * time.Microsecond)},
		{Durations, histBuckets - 1, float64(time.Duration(1<<uint(histBuckets-1)) * time.Microsecond)},
		{Durations, histBuckets + 5, float64(time.Duration(1<<uint(histBuckets-1)) * time.Microsecond)},
		{Ratios, 0, 1.0 / 65536},
		{Ratios, 16, 1}, // bucket 17 is [1, 2): a perfect estimate
		{Ratios, 17, 2},
		{Ratios, histBuckets - 1, 32768},
	}
	for _, c := range cases {
		if got := c.s.UpperEdge(c.i); got != c.want {
			t.Fatalf("%s UpperEdge(%d) = %v, want %v", c.s, c.i, got, c.want)
		}
	}
	// Edges must agree with bucket: an observation just below the edge lands
	// in the bucket, one at the edge in the next.
	for _, s := range []Scale{Durations, Ratios} {
		for i := 0; i < histBuckets-1; i++ {
			edge := s.UpperEdge(i)
			if got := s.bucket(math.Nextafter(edge, 0)); got != i {
				t.Fatalf("%s: bucket(just below edge %d) = %d", s, i, got)
			}
			if got := s.bucket(edge); got != i+1 {
				t.Fatalf("%s: bucket(edge %d) = %d, want %d", s, i, got, i+1)
			}
		}
		for _, v := range []float64{0, -1, math.NaN()} {
			if got := s.bucket(v); got != 0 {
				t.Fatalf("%s: bucket(%v) = %d, want 0", s, v, got)
			}
		}
		if got := s.bucket(math.Inf(1)); got != histBuckets-1 {
			t.Fatalf("%s: bucket(+Inf) = %d, want the top bucket", s, got)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	d := r.Duration("busy")
	g := r.Gauge("depth")
	h := r.Histogram("lat", Durations)

	c.Add(3)
	d.Add(time.Millisecond)
	g.Set(7)
	h.ObserveDuration(time.Microsecond)
	before := r.Snapshot()

	c.Add(2)
	d.Add(time.Millisecond)
	g.Set(9)
	h.ObserveDuration(2 * time.Microsecond)
	after := r.Snapshot()

	delta := after.Delta(before)
	if delta.Counters["ops"] != 2 {
		t.Fatalf("counter delta = %d, want 2", delta.Counters["ops"])
	}
	if delta.Durations["busy"] != time.Millisecond {
		t.Fatalf("duration delta = %v", delta.Durations["busy"])
	}
	if delta.Gauges["depth"] != 9 {
		t.Fatalf("gauge delta must be instantaneous, got %d", delta.Gauges["depth"])
	}
	hd := delta.Histograms["lat"]
	if hd.Scale != Durations || hd.Count != 1 || hd.Sum != float64(2*time.Microsecond) {
		t.Fatalf("hist delta count=%d sum=%v", hd.Count, hd.Sum)
	}
	var buckets int64
	for _, b := range hd.Buckets {
		buckets += b
	}
	if buckets != 1 {
		t.Fatalf("hist delta buckets sum to %d, want 1", buckets)
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistryScaleClash(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x", Durations)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a histogram under another scale must panic")
		}
	}()
	r.Histogram("x", Ratios)
}

// TestRegistryConcurrent exercises every metric kind from parallel
// goroutines; under -race this pins the atomicity the chaos suite relies on
// when it runs engines from test goroutines.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops")
			d := r.Duration("busy")
			g := r.Gauge("hw")
			h := r.Histogram("lat", Durations)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				d.Add(time.Microsecond)
				g.Max(int64(i))
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Duration("busy").Load(); got != workers*perWorker*time.Microsecond {
		t.Fatalf("duration = %v", got)
	}
	if got := r.Gauge("hw").Load(); got != perWorker-1 {
		t.Fatalf("gauge max = %d, want %d", got, perWorker-1)
	}
	if got := r.Histogram("lat", Durations).Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d", got)
	}
}
