package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// FuzzReadChrome holds the trace reader to its contract on arbitrary bytes:
// ReadChrome never panics; what it accepts WriteChrome writes again and
// ReadChrome reads back with as many spans and events, each with every field
// that is not a clock reading intact, and both reads come out in the one
// documented order (spans by start, ties by name; events by time). Clock
// readings are left out of the comparison because a read truncates to the
// nanosecond what the file holds in microseconds, so a second read may lose
// one more and turn two neighbours into a tie.
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
			t.Fatalf("round trip changed a span beyond its clock readings:\n%q\n%q", a, b)
		}
		if a, b := eventIdentities(events), eventIdentities(events2); !slices.Equal(a, b) {
			t.Fatalf("round trip changed an event beyond its time:\n%q\n%q", a, b)
		}
	})
}

// spanIdentities renders every span without its clock readings, sorted, so two
// reads compare as multisets.
func spanIdentities(spans []Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		s.Start, s.End, s.QueueWait, s.Transfer, s.Overlap = 0, 0, 0, 0, 0
		out[i] = fmt.Sprintf("%+v", s)
	}
	slices.Sort(out)
	return out
}

func eventIdentities(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = fmt.Sprintf("%q", []string{ev.Kind, ev.Subject, ev.Reason})
	}
	slices.Sort(out)
	return out
}
