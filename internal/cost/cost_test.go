package cost

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestStrings(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" || ProcKind(9).String() != "proc(9)" {
		t.Fatal("proc labels wrong")
	}
	want := map[OpClass]string{
		Selection: "selection", Join: "join", Aggregation: "aggregation",
		Sort: "sort", Materialize: "materialize", Compute: "compute",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if OpClass(99).String() != "op(99)" {
		t.Error("unknown class label wrong")
	}
}

func TestDefaultParamsComplete(t *testing.T) {
	p := DefaultParams()
	for _, kind := range []ProcKind{CPU, GPU} {
		for class := OpClass(0); class < numOpClasses; class++ {
			thr := p.Throughput[kind][class]
			if thr <= 0 {
				t.Errorf("missing throughput for %s on %s", class, kind)
			}
		}
		if p.Startup[kind] <= 0 {
			t.Errorf("missing startup for %s", kind)
		}
	}
	if p.BusBandwidth <= 0 || p.BusLatency <= 0 || p.SelectionFootprint <= 1 {
		t.Fatal("bus or footprint params missing")
	}
}

// The calibration anchors: the GPU must beat the CPU when data is resident,
// and the bus must be much slower than the GPU's selection kernel so cache
// thrashing shows the paper's degradation factor.
func TestCalibrationAnchors(t *testing.T) {
	p := DefaultParams()
	for class := OpClass(0); class < numOpClasses; class++ {
		if p.Throughput[GPU][class] <= p.Throughput[CPU][class] {
			t.Errorf("GPU should outrun CPU for %s when data is resident", class)
		}
	}
	thrashFactor := p.Throughput[GPU][Selection] / p.BusBandwidth
	if thrashFactor < 15 || thrashFactor > 30 {
		t.Errorf("thrash factor = %.1f, want order ~20 (paper: 24)", thrashFactor)
	}
}

func TestOpDuration(t *testing.T) {
	p := DefaultParams()
	d := p.OpDuration(Selection, GPU, 50_000_000_000) // 50 GB at 50 GB/s = 1 s
	want := time.Second + p.Startup[GPU]
	if d != want {
		t.Fatalf("duration = %v, want %v", d, want)
	}
	if p.OpDuration(Join, CPU, 0) != p.Startup[CPU] {
		t.Fatal("zero bytes should cost only startup")
	}
	mustPanic(t, func() { p.OpDuration(Selection, GPU, -1) })
	mustPanic(t, func() { p.OpDuration(OpClass(99), GPU, 1) })
}

func TestWork(t *testing.T) {
	if Work(10, 5) != 15 {
		t.Fatal("Work wrong")
	}
}

func TestHeapFootprint(t *testing.T) {
	p := DefaultParams()
	if got := p.HeapFootprint(Selection, 1000, 100); got != 3250 {
		t.Fatalf("selection footprint = %d, want 3250", got)
	}
	if got := p.HeapFootprint(Join, 1000, 500); got != 1800 {
		t.Fatalf("join footprint = %d", got)
	}
	if got := p.HeapFootprint(Aggregation, 1000, 100); got != 1200 {
		t.Fatalf("agg footprint = %d", got)
	}
	if got := p.HeapFootprint(Sort, 1000, 1000); got != 3000 {
		t.Fatalf("sort footprint = %d", got)
	}
	if got := p.HeapFootprint(Materialize, 1000, 800); got != 1800 {
		t.Fatalf("materialize footprint = %d", got)
	}
	if got := p.HeapFootprint(Compute, 1000, 800); got != 1800 {
		t.Fatalf("compute footprint = %d", got)
	}
	if got := p.HeapFootprint(OpClass(99), 10, 5); got != 15 {
		t.Fatalf("default footprint = %d", got)
	}
}

func TestModelFallsBackToPrior(t *testing.T) {
	p := DefaultParams()
	m := NewModel(Selection, GPU, p)
	want := p.OpDuration(Selection, GPU, 1000)
	if m.Estimate(1000) != want {
		t.Fatal("fresh model should return the analytical prior")
	}
	mustPanic(t, func() { NewModel(Selection, GPU, nil) })
}

func TestModelLearnsLinearRelation(t *testing.T) {
	p := DefaultParams()
	m := NewModel(Join, CPU, p)
	// Feed a perfectly linear relation: t = 1ms + bytes * 1ns.
	for _, b := range []int64{1000, 2000, 5000, 10000, 20000, 50000} {
		d := time.Millisecond + time.Duration(b)*time.Nanosecond
		m.Observe(b, d)
	}
	if m.Samples() != 6 {
		t.Fatalf("samples = %d", m.Samples())
	}
	got := m.Estimate(30000)
	want := time.Millisecond + 30000*time.Nanosecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

func TestModelDegenerateSamples(t *testing.T) {
	p := DefaultParams()
	m := NewModel(Sort, CPU, p)
	for i := 0; i < 6; i++ {
		m.Observe(1000, 2*time.Millisecond)
	}
	got := m.Estimate(99999)
	if got != 2*time.Millisecond {
		t.Fatalf("degenerate fit should use the mean, got %v", got)
	}
}

func TestModelClampsNegative(t *testing.T) {
	p := DefaultParams()
	m := NewModel(Compute, CPU, p)
	// Strongly decreasing relation forces a negative extrapolation.
	m.Observe(1000, 100*time.Millisecond)
	m.Observe(2000, 80*time.Millisecond)
	m.Observe(3000, 60*time.Millisecond)
	m.Observe(4000, 40*time.Millisecond)
	m.Observe(5000, 20*time.Millisecond)
	if got := m.Estimate(100000); got != 0 {
		t.Fatalf("negative extrapolation must clamp to 0, got %v", got)
	}
}

func TestLearner(t *testing.T) {
	l := NewLearner(DefaultParams())
	if l.Model(Selection, GPU) != l.Model(Selection, GPU) {
		t.Fatal("Model must be memoized")
	}
	l.Observe(Selection, GPU, 1000, time.Millisecond)
	if l.Model(Selection, GPU).Samples() != 1 {
		t.Fatal("Observe did not reach the model")
	}
	if l.Estimate(Selection, GPU, 1000) <= 0 {
		t.Fatal("estimate should be positive")
	}
}

// Property: with enough consistent observations, the learned estimate is
// within 10% of the generating linear function across the observed range.
func TestModelFitAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := float64(rng.Intn(10)+1) * 1e-4 // 0.1ms..1ms
		b := float64(rng.Intn(10)+1) * 1e-10
		m := NewModel(Selection, CPU, DefaultParams())
		for i := 0; i < 30; i++ {
			x := rng.Int63n(1_000_000) + 1000
			y := a + b*float64(x)
			m.Observe(x, time.Duration(y*float64(time.Second)))
		}
		x := rng.Int63n(1_000_000) + 1000
		want := a + b*float64(x)
		got := m.Estimate(x).Seconds()
		return got > want*0.9 && got < want*1.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
