package trace

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
)

// FuzzReadChrome holds the trace reader to its contract on arbitrary bytes:
// ReadChrome never panics; what it accepts WriteChrome writes again and
// ReadChrome reads back equal — every field of every span and event, clock
// readings included, in the one documented order (spans by start, ties by
// name; events by time).
func FuzzReadChrome(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteChrome(&golden, roundTripSpans, roundTripEvents); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"traceEvents":[` +
		`{"name":"b","ph":"X","ts":1e300,"dur":-1e300,"pid":1,"tid":1,"args":{"Query":"q","Name":"b","Class":"join","Start":4611686018427387904,"End":-9223372036854775808,"QueueWait":9223372036854775807,"Overlap":1e308}},` +
		`{"name":"a","ph":"X","ts":1.0005,"pid":1,"tid":1,"args":{"query":"q","name":"a","start":1000,"overlap":0.30000000000000004}},` +
		`{"name":"e","ph":"i","ts":-1e300,"pid":1,"tid":0,"s":"g","args":{"At":-9223372036854775808,"Kind":"e","Subject":"x"}},` +
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
		if !slices.IsSortedFunc(spans, func(a, b Span) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Name, b.Name))
		}) {
			t.Fatalf("spans not sorted by start, then name: %+v", spans)
		}
		if !slices.IsSortedFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) }) {
			t.Fatalf("events not sorted by time: %+v", events)
		}
		if !slices.Equal(spans, spans2) {
			t.Fatalf("round trip changed the spans:\n%+v\n%+v", spans, spans2)
		}
		if !slices.Equal(events, events2) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, events2)
		}
	})
}
