package trace

import (
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
	h := NewRegistry().Histogram("OpRuntimeGPU")
	for _, d := range []time.Duration{500 * time.Nanosecond, time.Microsecond,
		3 * time.Microsecond, 100 * time.Microsecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 500*time.Nanosecond + time.Microsecond + 3*time.Microsecond +
		100*time.Microsecond + 2*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	h.Observe(-time.Second) // clamps to zero, never a negative bucket
	if h.Count() != 6 {
		t.Fatalf("negative observation dropped")
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
		h := r.Histogram("h")
		for _, d := range ds {
			h.Observe(d)
		}
		for i, n := range r.Snapshot().Histograms["h"].Buckets {
			if n == 0 {
				continue
			}
			if used++; used == 1 {
				lo = BucketUpperEdge(i)
			}
			hi = BucketUpperEdge(i)
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
		if lo, _, _ := edges(1 << 62); lo != BucketUpperEdge(histBuckets-1) {
			t.Fatalf("edge = %v, want the clamped top edge %v", lo, BucketUpperEdge(histBuckets-1))
		}
	})
}

func TestBucketUpperEdge(t *testing.T) {
	cases := []struct {
		i    int
		want time.Duration
	}{
		{-1, time.Microsecond},
		{0, time.Microsecond},
		{1, 2 * time.Microsecond},
		{7, 128 * time.Microsecond},
		{histBuckets - 1, time.Duration(1<<uint(histBuckets-1)) * time.Microsecond},
		{histBuckets + 5, time.Duration(1<<uint(histBuckets-1)) * time.Microsecond},
	}
	for _, c := range cases {
		if got := BucketUpperEdge(c.i); got != c.want {
			t.Fatalf("BucketUpperEdge(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	// Edges must agree with bucketOf: an observation just below the edge
	// lands in the bucket, one at the edge lands in the next.
	for i := 0; i < histBuckets-1; i++ {
		edge := BucketUpperEdge(i)
		if got := bucketOf(edge - time.Microsecond); got > i {
			t.Fatalf("bucketOf(edge-1µs) = %d for bucket %d", got, i)
		}
		if got := bucketOf(edge); got != i+1 {
			t.Fatalf("bucketOf(edge) = %d, want %d", got, i+1)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	d := r.Duration("busy")
	g := r.Gauge("depth")
	h := r.Histogram("lat")

	c.Add(3)
	d.Add(time.Millisecond)
	g.Set(7)
	h.Observe(time.Microsecond)
	before := r.Snapshot()

	c.Add(2)
	d.Add(time.Millisecond)
	g.Set(9)
	h.Observe(2 * time.Microsecond)
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
	if hd.Count != 1 || hd.Sum != 2*time.Microsecond {
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
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				d.Add(time.Microsecond)
				g.Max(int64(i))
				h.Observe(time.Duration(i) * time.Microsecond)
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
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d", got)
	}
}
