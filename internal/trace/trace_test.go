package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func span(query, name string, start, end time.Duration) Span {
	return Span{Query: query, Name: name, Op: "scan", Class: "selection",
		Proc: "gpu", Start: start, End: end}
}

func TestTracerRecordsInOrder(t *testing.T) {
	tr := New(8)
	tr.Span(span("q1", "q1/op1", 0, time.Millisecond))
	tr.Span(span("q1", "q1/op2", time.Millisecond, 2*time.Millisecond))
	tr.Event(Event{At: time.Microsecond, Kind: "admit", Subject: "lo.key"})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "q1/op1" || spans[1].Name != "q1/op2" {
		t.Fatalf("spans = %+v", spans)
	}
	events := tr.Events()
	if len(events) != 1 || events[0].Kind != "admit" {
		t.Fatalf("events = %+v", events)
	}
	if s, e := tr.Dropped(); s != 0 || e != 0 {
		t.Fatalf("dropped %d/%d on a non-full ring", s, e)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Span(span("q1", "q1/op"+string(rune('0'+i)), time.Duration(i), time.Duration(i+1)))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first: the last four emitted, in order.
	if spans[0].Start != 6 || spans[3].Start != 9 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	if dropped, _ := tr.Dropped(); dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset must clear the ring")
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	tr.Span(Span{})   // must not panic
	tr.Event(Event{}) // must not panic
	tr.Reset()        // must not panic
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Spans() != nil || tr.Events() != nil {
		t.Fatal("nil tracer returned data")
	}
	if s, e := tr.Dropped(); s != 0 || e != 0 {
		t.Fatal("nil tracer dropped counts")
	}
}

// TestDisabledPathAllocates nothing: the engine's per-operator trace hooks
// boil down to these calls when tracing is off, and the acceptance criterion
// is zero allocations per operator on the disabled path.
func TestDisabledPathAllocations(t *testing.T) {
	var tr *Tracer
	s := span("q1", "q1/op1", 0, time.Millisecond)
	ev := Event{At: 0, Kind: "admit", Subject: "col"}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(s)
		tr.Event(ev)
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f per op, want 0", allocs)
	}
}

// The enabled steady-state path must not allocate either — spans land in the
// preallocated ring.
func TestEnabledSteadyStateAllocations(t *testing.T) {
	tr := New(16)
	s := span("q1", "q1/op1", 0, time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(s)
	})
	if allocs != 0 {
		t.Fatalf("enabled span emit allocates %.1f per op, want 0", allocs)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Span(span("q1", "q1/op", time.Duration(i), time.Duration(i+1)))
				tr.Event(Event{At: time.Duration(i), Kind: "admit"})
			}
		}(w)
	}
	wg.Wait()
	if len(tr.Spans()) != 128 {
		t.Fatalf("ring holds %d", len(tr.Spans()))
	}
}

// roundTripSpans and roundTripEvents are one query's trace — a GPU abort and
// its CPU retry included — that TestChromeRoundTrip holds to an exact round
// trip and FuzzReadChrome mutates from.
var (
	roundTripSpans = []Span{
		{Query: "q0001", Name: "q0001", Class: "query", Node: -1,
			Start: 0, End: 3 * time.Millisecond},
		{Query: "q0001", Name: "q0001/op001", Op: "scan(lineorder)", Class: "selection",
			Proc: "gpu", Node: 1, Start: 10 * time.Microsecond, End: time.Millisecond,
			QueueWait: 2 * time.Microsecond, Transfer: 100 * time.Microsecond,
			Attempt: 0, HeapHighWater: 4096},
		{Query: "q0001", Name: "q0001/op002", Op: "join(a=b)", Class: "join",
			Proc: "gpu", Node: 2, Start: time.Millisecond, End: 1500 * time.Microsecond,
			Abort: "oom", Attempt: 0, HeapHighWater: 8192},
		{Query: "q0001", Name: "q0001/op002", Op: "join(a=b)", Class: "join",
			Proc: "cpu", Node: 2, Start: 1500 * time.Microsecond, End: 3 * time.Millisecond,
			Attempt: 1},
	}
	roundTripEvents = []Event{
		{At: 5 * time.Microsecond, Kind: "admit", Subject: "lineorder.lo_custkey", Reason: "operator-demand"},
		{At: time.Millisecond, Kind: "evict", Subject: "date.d_year", Reason: "replacement"},
	}
)

func TestChromeRoundTrip(t *testing.T) {
	spans, events := roundTripSpans, roundTripEvents
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, `"ph": "i"`, `"ph": "M"`,
		`"abort": "oom"`, `"heap_high_water": 8192`, `"thread_name"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}

	gotSpans, gotEvents, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSpans) != len(spans) || len(gotEvents) != len(events) {
		t.Fatalf("round trip: %d spans %d events", len(gotSpans), len(gotEvents))
	}
	for i, s := range gotSpans {
		if s != spans[i] {
			t.Fatalf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, s, spans[i])
		}
	}
	for i, ev := range gotEvents {
		if ev != events[i] {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, ev, events[i])
		}
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, _, err := ReadChrome(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestWaterfall(t *testing.T) {
	spans := []Span{
		{Query: "q0001", Name: "q0001", Class: "query", Start: 0, End: 2 * time.Millisecond},
		{Query: "q0001", Name: "q0001/op001", Op: "scan(t)", Class: "selection",
			Proc: "gpu", Start: 0, End: time.Millisecond, Transfer: 50 * time.Microsecond},
		{Query: "q0001", Name: "q0001/op002", Op: "agg(x)", Class: "aggregation",
			Proc: "cpu", Start: time.Millisecond, End: 2 * time.Millisecond,
			QueueWait: 10 * time.Microsecond},
		{Query: "q0001", Name: "q0001/op003", Op: "join(a=b)", Class: "join",
			Proc: "gpu", Start: 0, End: 500 * time.Microsecond, Abort: "oom"},
	}
	events := []Event{{At: 0, Kind: "admit", Subject: "t.x"}}
	var buf bytes.Buffer
	check(t, Waterfall(&buf, spans, events))
	out := buf.String()
	for _, want := range []string{"q0001", "ops=3 (gpu=1 cpu=1 aborted=1)",
		"op001", "gpu!oom", "scan(t)", "events: admit=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	// A trace whose query span was dropped still renders its operators.
	var buf2 bytes.Buffer
	check(t, Waterfall(&buf2, spans[1:], nil))
	if !strings.Contains(buf2.String(), "op001") {
		t.Fatalf("orphan ops not rendered:\n%s", buf2.String())
	}
	var empty bytes.Buffer
	check(t, Waterfall(&empty, nil, nil))
	if !strings.Contains(empty.String(), "no spans") {
		t.Fatal("empty trace must say so")
	}
}

func TestSummary(t *testing.T) {
	spans := []Span{
		{Query: "q0001", Name: "q0001", Class: "query", Start: 0, End: 2 * time.Millisecond},
		{Query: "q0001", Name: "q0001/op001", Op: "scan(t)", Class: "selection",
			Proc: "gpu", Start: 0, End: time.Millisecond, Abort: "fault"},
	}
	var buf bytes.Buffer
	check(t, Summary(&buf, spans))
	out := buf.String()
	if !strings.Contains(out, "queries=1 operator-spans=1") ||
		!strings.Contains(out, "aborted=1") {
		t.Fatalf("summary:\n%s", out)
	}
}
