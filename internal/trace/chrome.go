package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace_event export: the JSON Array Format consumed by
// chrome://tracing and Perfetto. Spans become complete ("X") events — one
// horizontal bar per operator attempt — and cache/placement decisions become
// instant ("i") events. Timestamps are virtual microseconds, so the rendered
// timeline is the simulated timeline of the run.
//
// Lane layout: pid 1 is the run; each query gets its own tid (its operator
// spans nest inside the query span), and instant events share tid 0.

// chromeEvent is one entry of the traceEvents array. Field order is the
// serialization order, which keeps exports byte-stable for golden tests.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// chromeFile is the top-level object of the export.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome serializes spans and events as Chrome trace_event JSON. Each
// record's own JSON is its event's args; ts and dur repeat its clock in
// microseconds for the viewers.
func WriteChrome(w io.Writer, spans []Span, events []Event) error {
	out := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Assign one lane (tid) per query, in order of first appearance; lane 0
	// holds the instant events.
	lanes := map[string]int{}
	for _, s := range spans {
		if _, ok := lanes[s.Query]; !ok {
			lanes[s.Query] = len(lanes) + 1
			args, err := json.Marshal(struct {
				Name string `json:"name"`
			}{s.Query})
			if err != nil {
				return err
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: lanes[s.Query], Args: args,
			})
		}
	}

	for _, s := range spans {
		args, err := json.Marshal(s)
		if err != nil {
			return err
		}
		dur := micros(s.Duration())
		cat := "operator"
		if s.Class == "query" {
			cat = "query"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Ts: micros(s.Start), Dur: &dur,
			Pid: 1, Tid: lanes[s.Query], Args: args,
		})
	}
	for _, ev := range events {
		args, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Kind, Cat: "decision", Ph: "i", Ts: micros(ev.At),
			Pid: 1, Tid: 0, S: "g", Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadChrome parses a Chrome trace_event export written by WriteChrome back
// into exactly the spans and events written: each comes from its event's
// args alone, and a key Span or Event does not declare is refused, so a file
// of another shape fails naming the key instead of reading as zeros. Spans
// come back sorted by start time, ties by name, so downstream reports are
// deterministic even if the file was reordered.
func ReadChrome(r io.Reader) ([]Span, []Event, error) {
	var file struct {
		TraceEvents []struct {
			Name, Ph string
			Args     json.RawMessage
		}
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, nil, fmt.Errorf("trace: invalid chrome trace: %w", err)
	}
	var spans []Span
	var events []Event
	for _, ce := range file.TraceEvents {
		switch ce.Ph {
		case "X":
			var s Span
			if err := decodeArgs(ce.Args, &s); err != nil {
				return nil, nil, fmt.Errorf("trace: span %q: %w", ce.Name, err)
			}
			spans = append(spans, s)
		case "i", "I":
			var ev Event
			if err := decodeArgs(ce.Args, &ev); err != nil {
				return nil, nil, fmt.Errorf("trace: event %q: %w", ce.Name, err)
			}
			events = append(events, ev)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Name < spans[j].Name
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return spans, events, nil
}

// decodeArgs decodes one record from an event's args, refusing unknown keys.
func decodeArgs(args json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(args))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
