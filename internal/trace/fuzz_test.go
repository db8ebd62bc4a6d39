package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// FuzzReadChrome holds the trace reader to its contract on arbitrary bytes:
// ReadChrome never panics; what it accepts WriteChrome writes again and
// ReadChrome reads back with as many spans and events, each with every field
// intact, and both reads come out in the one documented order (spans by start,
// ties by name; events by time). A span's or an event's clock readings are
// part of the comparison unless one of them is beyond roundTripExact.
func FuzzReadChrome(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteChrome(&golden, roundTripSpans, roundTripEvents); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"traceEvents":[` +
		`{"name":"b","ph":"X","ts":1e300,"dur":-1e300,"pid":1,"tid":1,"args":{"query":"q","class":"join","node":0,"queue_wait_us":1e308,"transfer_us":-1e308,"attempt":0,"heap_high_water":0}},` +
		`{"name":"a","ph":"X","ts":1.0005,"pid":1,"tid":1,"args":{"query":"q","class":"join","node":1,"queue_wait_us":0,"transfer_us":0,"attempt":0,"heap_high_water":0}},` +
		`{"name":"e","ph":"i","ts":-1e300,"pid":1,"tid":0,"s":"g","args":{"subject":"x"}},` +
		`{"name":"skipped","ph":"M","pid":1,"tid":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, events, err := ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteChrome(&buf, spans, events); err != nil {
			t.Fatalf("WriteChrome refuses what ReadChrome accepted: %v", err)
		}
		spans2, events2, err := ReadChrome(&buf)
		if err != nil {
			t.Fatalf("ReadChrome refuses what WriteChrome wrote: %v", err)
		}
		if len(spans2) != len(spans) || len(events2) != len(events) {
			t.Fatalf("round trip: %d spans %d events → %d spans %d events",
				len(spans), len(events), len(spans2), len(events2))
		}
		for _, read := range [][]Span{spans, spans2} {
			if !slices.IsSortedFunc(read, func(a, b Span) int {
				return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Name, b.Name))
			}) {
				t.Fatalf("spans not sorted by start, then name: %+v", read)
			}
		}
		for _, read := range [][]Event{events, events2} {
			if !slices.IsSortedFunc(read, func(a, b Event) int { return cmp.Compare(a.At, b.At) }) {
				t.Fatalf("events not sorted by time: %+v", read)
			}
		}
		if a, b := spanIdentities(spans), spanIdentities(spans2); !slices.Equal(a, b) {
			t.Fatalf("round trip changed a span:\n%q\n%q", a, b)
		}
		if a, b := eventIdentities(events), eventIdentities(events2); !slices.Equal(a, b) {
			t.Fatalf("round trip changed an event:\n%q\n%q", a, b)
		}
	})
}

// roundTripExact bounds the clock readings the identities below compare. The
// file holds float64 microseconds: a whole nanosecond survives micros →
// fromMicros below 2⁵¹ (d/1000 runs out of bits after that, and 1–2 % of the
// readings up to 2⁵³ come back 1 ns off). A reading beyond moves by a few
// nanoseconds a trip at most, so none crosses a bound one binade lower.
const roundTripExact = time.Duration(1) << 50

func exact(ds ...time.Duration) bool {
	for _, d := range ds {
		if d <= -roundTripExact || d >= roundTripExact {
			return false
		}
	}
	return true
}

// spanIdentities renders every span, sorted, so two reads compare as
// multisets; a span with a reading that is not exact goes without its clock.
func spanIdentities(spans []Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		if !exact(s.Start, s.End-s.Start, s.QueueWait, s.Transfer) {
			s.Start, s.End, s.QueueWait, s.Transfer = 0, 0, 0, 0
		}
		s.Overlap = 0
		out[i] = fmt.Sprintf("%+v", s)
	}
	slices.Sort(out)
	return out
}

func eventIdentities(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		if !exact(ev.At) {
			ev.At = 0
		}
		out[i] = fmt.Sprintf("%d %q", ev.At, []string{ev.Kind, ev.Subject, ev.Reason})
	}
	slices.Sort(out)
	return out
}

// TestMicrosRoundTrip pins the reader's rounding: what micros writes,
// fromMicros reads back to the nanosecond (truncation read 1 001 ns as 1 000).
func TestMicrosRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 999, time.Microsecond, time.Microsecond + 1, -1, -999,
		-time.Microsecond - 1, roundTripExact - 1, 1<<51 - 1, 1 << 52} {
		if got := fromMicros(micros(d)); got != d {
			t.Errorf("fromMicros(micros(%d ns)) = %d ns", d, got)
		}
	}
}
