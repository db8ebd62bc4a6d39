package trace

import (
	"sync"
	"time"
)

// Span is one traced interval of virtual time: an operator execution attempt
// or a whole query. All timestamps are simulator time — the tracer never
// reads the wall clock, so traces replay bit-for-bit from a seed.
type Span struct {
	// Query is the query id the span belongs to ("q0001"). Query-level spans
	// carry their own id here too.
	Query string
	// Name is the unique span name ("q0001/op003"; query spans use the query
	// id).
	Name string
	// Op is the operator name ("join(lo_custkey=c_custkey)"); empty for
	// query-level spans.
	Op string
	// Class is the operator's cost class ("selection", "join", …); "query"
	// for query-level spans.
	Class string
	// Proc is the processor the attempt ran on ("cpu" or "gpu"); empty for
	// query-level spans.
	Proc string
	// Node is the plan node id; -1 for query-level spans.
	Node int
	// Start and End bound the span in virtual time.
	Start, End time.Duration
	// QueueWait is the virtual time the operator spent waiting for a worker
	// slot in the operator stream (query chopping's thread-pool bound).
	QueueWait time.Duration
	// Transfer is the virtual bus time spent moving this attempt's inputs
	// and results.
	Transfer time.Duration
	// Abort classifies why the attempt gave up: "" (completed), "oom"
	// (device heap full), "fault" (injected transient fault), "reset"
	// (device reset mid-run), "error" (query-logic error), or "failed" on a
	// query span whose query ended with an error.
	Abort string
	// Attempt is the 0-based attempt number of the operator (retries and the
	// CPU fallback increment it).
	Attempt int
	// HeapHighWater is the attempt's peak device-heap reservation in bytes
	// (0 for CPU runs and query spans).
	HeapHighWater int64
	// KernelWorkers is the intra-operator worker bound the attempt's kernels
	// ran under (0 when the engine executed kernels serially, and for query
	// spans).
	KernelWorkers int
	// MorselCount is the number of morsels the attempt's kernels fanned out
	// (0 in serial mode: the serial paths dispatch no morsels).
	MorselCount int64
	// Tenant is the submitting tenant when the query arrived through the
	// network front door; empty for benchmark-driven runs.
	Tenant string
	// Rows is the actual output row count of a completed operator attempt
	// (0 for aborted attempts and query-level spans). Together with
	// OutBytes it is the "actual" side of EXPLAIN ANALYZE's
	// estimate-vs-actual comparison.
	Rows int64
	// OutBytes is the actual output byte footprint of a completed attempt
	// (0 for aborted attempts and query-level spans).
	OutBytes int64
	// DecompressBytes is the number of bytes materialized by decoding
	// compressed columns during the attempt's kernel (best-effort: the
	// decode meter is process-wide, so concurrent engines in one process
	// may cross-attribute; within one engine the attribution is exact).
	DecompressBytes int64
	// Compression is "bitpack" when the operator scanned a bit-packed base
	// column; empty when it read no compressed base columns, so traces
	// from uncompressed databases keep the earlier format byte-identical.
	Compression string
	// PipelineDepth is the buffered-chunk bound of a pipelined operator
	// attempt (0 for serial attempts, chunk-stage spans, and query spans, so
	// non-pipelined traces keep the earlier format byte-identical).
	PipelineDepth int
	// ChunkCount is the number of chunks a pipelined attempt executed.
	ChunkCount int64
	// CPUChunks is how many of those chunks the co-execution policy ran on
	// the CPU pool.
	CPUChunks int64
	// Overlap is the fraction of the ideal serial stage time hidden by
	// transfer/compute overlap: on pipelined operator attempts the attempt's
	// own ratio, on query spans the query-wide ratio (0 without pipelining).
	Overlap float64
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Event is one traced point decision: a cache admission/eviction/pin, a
// placement choice, or a device reset.
type Event struct {
	// At is the virtual timestamp.
	At time.Duration
	// Kind is the decision class: "admit", "evict", "pin", "unpin", "place",
	// "reset".
	Kind string
	// Subject is what was decided about — a column id for cache events, an
	// operator name for placement events.
	Subject string
	// Reason is the decision's cause ("operator-demand", "algorithm1",
	// "replacement", "breaker-open", …).
	Reason string
}

// Tracer collects spans and events into preallocated ring buffers. A nil
// *Tracer is the disabled tracer: every method is a nil-check no-op, so the
// tracing-disabled path costs no allocations and no locks. The ring bounds
// memory on long runs — when it wraps, the oldest entries are dropped and
// counted.
type Tracer struct {
	mu            sync.Mutex
	spans         []Span
	spanNext      int
	spanCount     int
	spansDropped  int64
	events        []Event
	eventNext     int
	eventCount    int
	eventsDropped int64
}

// DefaultCapacity is the default ring size (spans and events each).
const DefaultCapacity = 1 << 16

// New creates a tracer whose span and event rings hold capacity entries
// each; capacity <= 0 uses DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		spans:  make([]Span, capacity),
		events: make([]Event, capacity),
	}
}

// Span records one span. Safe on a nil tracer (no-op).
func (t *Tracer) Span(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[t.spanNext] = s
	t.spanNext = (t.spanNext + 1) % len(t.spans)
	if t.spanCount < len(t.spans) {
		t.spanCount++
	} else {
		t.spansDropped++
	}
	t.mu.Unlock()
}

// Event records one event. Safe on a nil tracer (no-op).
func (t *Tracer) Event(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events[t.eventNext] = ev
	t.eventNext = (t.eventNext + 1) % len(t.events)
	if t.eventCount < len(t.events) {
		t.eventCount++
	} else {
		t.eventsDropped++
	}
	t.mu.Unlock()
}

// Enabled reports whether the tracer records anything. Callers use it to
// skip building span inputs (string formatting) when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Spans returns the recorded spans in emission order (oldest first). Safe on
// a nil tracer (returns nil).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.spanCount)
	start := 0
	if t.spanCount == len(t.spans) {
		start = t.spanNext
	}
	for i := 0; i < t.spanCount; i++ {
		out = append(out, t.spans[(start+i)%len(t.spans)])
	}
	return out
}

// Events returns the recorded events in emission order (oldest first). Safe
// on a nil tracer (returns nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.eventCount)
	start := 0
	if t.eventCount == len(t.events) {
		start = t.eventNext
	}
	for i := 0; i < t.eventCount; i++ {
		out = append(out, t.events[(start+i)%len(t.events)])
	}
	return out
}

// Dropped returns how many spans and events the rings overwrote.
func (t *Tracer) Dropped() (spans, events int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansDropped, t.eventsDropped
}

// Reset clears the rings for reuse between runs.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spanNext, t.spanCount, t.spansDropped = 0, 0, 0
	t.eventNext, t.eventCount, t.eventsDropped = 0, 0, 0
	t.mu.Unlock()
}
