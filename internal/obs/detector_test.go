package obs

import (
	"strings"
	"testing"

	"robustdb/internal/trace"
)

// verdictSeq is a Classifier replaying a fixed verdict sequence.
func verdictSeq(degraded ...bool) Classifier {
	i := 0
	return func(trace.Snapshot) Verdict {
		v := Verdict{Degraded: degraded[i%len(degraded)], Detail: "scripted"}
		i++
		return v
	}
}

// Both edges are hysteresis (2) windows wide. The asymmetric case (enter
// after 2, exit after 3) went with the per-edge widths: every detector uses
// one width.
func TestDetectorHysteresisEnterExit(t *testing.T) {
	d := NewDetector("T", verdictSeq(
		true,  // streak 1: no flip yet
		true,  // streak 2: enter degraded
		false, // one healthy window: not enough to exit
		true,  // degraded again: streak resets
		false, // streak 1
		false, // streak 2: exit
	))
	var flips []bool
	for i := 0; i < 6; i++ {
		if d.Observe(trace.Snapshot{}) {
			flips = append(flips, d.State().Degraded)
		}
	}
	if len(flips) != 2 || flips[0] != true || flips[1] != false {
		t.Fatalf("flips = %v, want [true false]", flips)
	}
	st := d.State()
	if st.Transitions != 2 || st.Windows != 6 {
		t.Fatalf("state = %+v", st)
	}
}

// TestDetectorFlappingInputDoesNotFlapState is the hysteresis property test:
// a signal alternating every window must never change the health state,
// because no streak of agreeing windows reaches the hysteresis width.
func TestDetectorFlappingInputDoesNotFlapState(t *testing.T) {
	d := NewDetector("T", verdictSeq(true, false))
	for i := 0; i < 1000; i++ {
		if d.Observe(trace.Snapshot{}) {
			t.Fatalf("flapping input flipped the state at window %d", i)
		}
	}
	if st := d.State(); st.Degraded || st.Transitions != 0 {
		t.Fatalf("state = %+v, want healthy with 0 transitions", st)
	}
}

func TestDetectorGaugeWriteback(t *testing.T) {
	reg := trace.NewRegistry()
	d := NewDetector("Thrashing", verdictSeq(true, true, false, false))
	d.Bind(reg)
	if reg.Gauge("DetectorThrashing").Load() != 0 {
		t.Fatal("gauge must start healthy")
	}
	observe(d, trace.Snapshot{}) // degraded
	if reg.Gauge("DetectorThrashing").Load() != 1 {
		t.Fatal("gauge must follow the degraded flip")
	}
	observe(d, trace.Snapshot{}) // healthy
	if reg.Gauge("DetectorThrashing").Load() != 0 {
		t.Fatal("gauge must follow the recovery flip")
	}
	if reg.Counter("DetectorThrashingTransitions").Load() != 2 {
		t.Fatal("transitions counter must count both flips")
	}
}

// observe feeds the same window hysteresis times: the fewest that flip a
// detector whose classifier disagrees with its state.
func observe(d *Detector, delta trace.Snapshot) {
	for i := 0; i < hysteresis; i++ {
		d.Observe(delta)
	}
}

// window builds a counter-only delta snapshot for classifier tests.
func window(counters map[string]int64) trace.Snapshot {
	return trace.Snapshot{Counters: counters}
}

func TestThrashingClassifier(t *testing.T) {
	d := NewThrashingDetector()
	// Thrashing window: heavy churn, heavy transfer, poor hit rate.
	observe(d, window(map[string]int64{
		"QueriesCompleted": 10,
		"CacheReadmits":    20,       // 2.0 per query ≥ 0.5
		"H2DBytes":         80 << 20, // 8 MiB per query ≥ 256 KiB
		"CacheHits":        2,
		"CacheMisses":      18, // hit rate 0.1 ≤ 0.5
	}))
	if st := d.State(); !st.Degraded {
		t.Fatalf("thrashing window classified healthy: %s", st.Detail)
	}
	// Healthy window: same load but the cache holds (hit rate 0.9, no churn).
	observe(d, window(map[string]int64{
		"QueriesCompleted": 10,
		"H2DBytes":         1 << 10,
		"CacheHits":        18,
		"CacheMisses":      2,
	}))
	if st := d.State(); st.Degraded {
		t.Fatalf("healthy window classified thrashing: %s", st.Detail)
	}
	// Idle window: rates are 0/0 — must classify healthy, not divide by zero.
	d.Observe(window(map[string]int64{}))
	if st := d.State(); st.Degraded || !strings.Contains(st.Detail, "idle") {
		t.Fatalf("idle window: %+v", st)
	}
}

func TestContentionClassifier(t *testing.T) {
	d := NewContentionDetector()
	observe(d, window(map[string]int64{
		"QueriesCompleted": 4,
		"QueriesFailed":    1,
		"Aborts":           3,
		"AllocFaults":      2, // (3+2+1)/5 = 1.2 ≥ 1.0
		"TransferFaults":   1,
	}))
	if st := d.State(); !st.Degraded {
		t.Fatalf("contended window classified healthy: %s", st.Detail)
	}
	observe(d, window(map[string]int64{"QueriesCompleted": 10, "Aborts": 1}))
	if st := d.State(); st.Degraded {
		t.Fatalf("calm window classified contended: %s", st.Detail)
	}
}

func TestSamplerWindowsAreDeltas(t *testing.T) {
	reg := trace.NewRegistry()
	queries := reg.Counter("QueriesCompleted")
	readmits := reg.Counter("CacheReadmits")
	bytes := reg.Counter("H2DBytes")
	misses := reg.Counter("CacheMisses")

	// Cumulative state that would look thrashing if read as a total...
	queries.Add(100)
	readmits.Add(1000)
	bytes.Add(1 << 30)
	misses.Add(1000)

	d := NewThrashingDetector()
	s := NewSampler(reg, []*Detector{d}, nil)
	// ...but the sampler was primed after it, so the first windows are empty.
	for i := 0; i < hysteresis; i++ {
		s.Tick()
	}
	if st := d.State(); st.Degraded {
		t.Fatalf("sampler leaked cumulative state into the first windows: %s", st.Detail)
	}
	// Genuinely thrashing windows flip it.
	for i := 0; i < hysteresis; i++ {
		queries.Add(10)
		readmits.Add(50)
		bytes.Add(100 << 20)
		misses.Add(100)
		s.Tick()
	}
	if st := d.State(); !st.Degraded {
		t.Fatalf("thrashing window missed: %s", st.Detail)
	}
}
