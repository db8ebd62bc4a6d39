package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// spanArgs carries the span fields through the args object.
type spanArgs struct {
	Query         string  `json:"query"`
	Op            string  `json:"op,omitempty"`
	Class         string  `json:"class"`
	Proc          string  `json:"proc,omitempty"`
	Node          int     `json:"node"`
	QueueWaitUS   float64 `json:"queue_wait_us"`
	TransferUS    float64 `json:"transfer_us"`
	Abort         string  `json:"abort,omitempty"`
	Attempt       int     `json:"attempt"`
	HeapHighWater int64   `json:"heap_high_water"`
	// Parallelism fields are omitted when zero so traces from serial runs
	// (and their goldens) are byte-identical to the pre-parallel format.
	KernelWorkers int   `json:"kernel_workers,omitempty"`
	Morsels       int64 `json:"morsels,omitempty"`
	// Tenant is omitted when empty so benchmark traces keep the pre-front-door
	// format byte-identical.
	Tenant string `json:"tenant,omitempty"`
	// Compression is omitted when empty (uncompressed base columns) so
	// goldens from uncompressed databases stay byte-identical.
	Compression string `json:"compression,omitempty"`
	// Actuals are omitted when zero so traces recorded before EXPLAIN
	// ANALYZE (and query-level spans) keep the earlier format.
	Rows            int64 `json:"rows,omitempty"`
	OutBytes        int64 `json:"out_bytes,omitempty"`
	DecompressBytes int64 `json:"decompress_bytes,omitempty"`
	// Pipeline fields are omitted when zero so serial-run traces (and their
	// goldens) are byte-identical to the pre-pipeline format.
	PipelineDepth int     `json:"pipeline_depth,omitempty"`
	Chunks        int64   `json:"chunks,omitempty"`
	CPUChunks     int64   `json:"cpu_chunks,omitempty"`
	Overlap       float64 `json:"overlap,omitempty"`
}

// eventArgs carries the event fields through the args object.
type eventArgs struct {
	Subject string `json:"subject"`
	Reason  string `json:"reason,omitempty"`
}

// threadArgs names a lane via a metadata event.
type threadArgs struct {
	Name string `json:"name"`
}

// chromeFile is the top-level object of the export.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fromMicros reads back what micros wrote, to the nearest nanosecond: a whole
// nanosecond is not a whole microsecond, so truncating lost one in a hundred.
func fromMicros(us float64) time.Duration {
	return time.Duration(math.Round(us * float64(time.Microsecond)))
}

// WriteChrome serializes spans and events as Chrome trace_event JSON.
func WriteChrome(w io.Writer, spans []Span, events []Event) error {
	out := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Assign one lane (tid) per query, in order of first appearance; lane 0
	// holds the instant events.
	lanes := map[string]int{}
	var laneNames []string
	for _, s := range spans {
		if _, ok := lanes[s.Query]; !ok {
			lanes[s.Query] = len(lanes) + 1
			laneNames = append(laneNames, s.Query)
		}
	}
	for i, name := range laneNames {
		args, err := json.Marshal(threadArgs{Name: name})
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: args,
		})
	}

	for _, s := range spans {
		args, err := json.Marshal(spanArgs{
			Query:           s.Query,
			Op:              s.Op,
			Class:           s.Class,
			Proc:            s.Proc,
			Node:            s.Node,
			QueueWaitUS:     micros(s.QueueWait),
			TransferUS:      micros(s.Transfer),
			Abort:           s.Abort,
			Attempt:         s.Attempt,
			HeapHighWater:   s.HeapHighWater,
			KernelWorkers:   s.KernelWorkers,
			Morsels:         s.MorselCount,
			Tenant:          s.Tenant,
			Compression:     s.Compression,
			Rows:            s.Rows,
			OutBytes:        s.OutBytes,
			DecompressBytes: s.DecompressBytes,
			PipelineDepth:   s.PipelineDepth,
			Chunks:          s.ChunkCount,
			CPUChunks:       s.CPUChunks,
			Overlap:         s.Overlap,
		})
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
		args, err := json.Marshal(eventArgs{Subject: ev.Subject, Reason: ev.Reason})
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
// into spans and events (the summarizer's input). Spans come back sorted by
// start time, ties by name, so downstream reports are deterministic even if
// the file was reordered.
func ReadChrome(r io.Reader) ([]Span, []Event, error) {
	var file chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return nil, nil, fmt.Errorf("trace: invalid chrome trace: %w", err)
	}
	var spans []Span
	var events []Event
	for _, ce := range file.TraceEvents {
		switch ce.Ph {
		case "X":
			var args spanArgs
			if err := json.Unmarshal(ce.Args, &args); err != nil {
				return nil, nil, fmt.Errorf("trace: span %q: %w", ce.Name, err)
			}
			var dur float64
			if ce.Dur != nil {
				dur = *ce.Dur
			}
			start := fromMicros(ce.Ts)
			spans = append(spans, Span{
				Query:           args.Query,
				Name:            ce.Name,
				Op:              args.Op,
				Class:           args.Class,
				Proc:            args.Proc,
				Node:            args.Node,
				Start:           start,
				End:             start + fromMicros(dur),
				QueueWait:       fromMicros(args.QueueWaitUS),
				Transfer:        fromMicros(args.TransferUS),
				Abort:           args.Abort,
				Attempt:         args.Attempt,
				HeapHighWater:   args.HeapHighWater,
				KernelWorkers:   args.KernelWorkers,
				MorselCount:     args.Morsels,
				Tenant:          args.Tenant,
				Compression:     args.Compression,
				Rows:            args.Rows,
				OutBytes:        args.OutBytes,
				DecompressBytes: args.DecompressBytes,
				PipelineDepth:   args.PipelineDepth,
				ChunkCount:      args.Chunks,
				CPUChunks:       args.CPUChunks,
				Overlap:         args.Overlap,
			})
		case "i", "I":
			var args eventArgs
			if err := json.Unmarshal(ce.Args, &args); err != nil {
				return nil, nil, fmt.Errorf("trace: event %q: %w", ce.Name, err)
			}
			events = append(events, Event{
				At:      fromMicros(ce.Ts),
				Kind:    ce.Name,
				Subject: args.Subject,
				Reason:  args.Reason,
			})
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
