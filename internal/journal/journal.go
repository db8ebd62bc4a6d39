// Package journal is the always-on slow-query journal: a bounded ring of
// fully analyzed query records — the EXPLAIN ANALYZE payload, the span
// waterfall, the tenant, and the admission outcome — for every query that
// crossed a latency threshold, misestimated past a q-error bound, or failed.
// The ring bounds memory on long runs (oldest entries drop and are counted),
// and a nil *Journal is the disabled journal: every method is a nil-check
// no-op, so the journaling-off path costs no locks and no allocations.
//
// The package never reads clocks: all times arrive from callers (virtual
// engine time; the wall-clock-exempt server layer may stamp WallTime).
package journal

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"robustdb/internal/plan"
	"robustdb/internal/trace"
)

// SpanRecord is one operator attempt of a journaled query's waterfall,
// compact enough to serialize per entry. Times are virtual microseconds.
type SpanRecord struct {
	Name            string `json:"name"`
	Op              string `json:"op,omitempty"`
	Proc            string `json:"proc,omitempty"`
	Node            int    `json:"node"`
	StartUS         int64  `json:"start_us"`
	DurUS           int64  `json:"dur_us"`
	QueueWaitUS     int64  `json:"queue_wait_us"`
	TransferUS      int64  `json:"transfer_us"`
	Abort           string `json:"abort,omitempty"`
	Attempt         int    `json:"attempt"`
	Rows            int64  `json:"rows,omitempty"`
	OutBytes        int64  `json:"out_bytes,omitempty"`
	DecompressBytes int64  `json:"decompress_bytes,omitempty"`
}

// Entry is one journaled query.
type Entry struct {
	// QueryID is the engine query id ("q0001"); empty for queries shed
	// before reaching the engine.
	QueryID string `json:"query_id,omitempty"`
	// SQL is the statement text as submitted.
	SQL string `json:"sql,omitempty"`
	// Tenant is the submitting tenant; empty for local runs.
	Tenant string `json:"tenant,omitempty"`
	// Outcome attributes how the query ended: "ok", "shed", "deadline", or
	// "engine-failure" — the same label set as the per-tenant SLO series.
	Outcome string `json:"outcome"`
	// Reason is why the entry was journaled: "latency", "qerror", or
	// "failure" (first matching gate, in that priority order: failure >
	// latency > qerror).
	Reason string `json:"reason"`
	// LatencyUS is the query's virtual response time in microseconds.
	LatencyUS int64 `json:"latency_us"`
	// QError is the query's worst per-operator cardinality misestimate
	// (0 when unknown).
	QError float64 `json:"q_error,omitempty"`
	// WallTime is an optional RFC3339 wall-clock stamp supplied by the
	// serving layer; engine code leaves it empty (virtual time only).
	WallTime string `json:"wall_time,omitempty"`
	// Plan is the analyzed EXPLAIN payload (per-node actuals attached); nil
	// for queries that never compiled.
	Plan *plan.ExplainPayload `json:"plan,omitempty"`
	// Spans is the query's span waterfall; nil when tracing was off or the
	// query never executed.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// Journal is the bounded ring. Construct with New; the zero value is not
// usable (use a nil *Journal for "disabled").
type Journal struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	count   int
	dropped int64

	latency time.Duration
	qerror  float64
}

// DefaultCapacity is the default ring size.
const DefaultCapacity = 256

// New creates a journal holding up to capacity entries (capacity <= 0 uses
// DefaultCapacity). latency is the slow-query threshold — any query at or
// over it is journaled, and 0 journals every query. qerror, when > 0,
// additionally journals queries whose q-error reaches the bound. Failed
// queries are always journaled.
func New(capacity int, latency time.Duration, qerror float64) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{
		entries: make([]Entry, capacity),
		latency: latency,
		qerror:  qerror,
	}
}

// Reason returns why a query with the given outcome would be journaled
// ("failure", "latency", "qerror"), or "" if it would not be. It is the
// cheap gate callers consult before building the expensive analyzed plan.
// Safe on a nil journal (always "").
func (j *Journal) Reason(latency time.Duration, qerror float64, failed bool) string {
	if j == nil {
		return ""
	}
	switch {
	case failed:
		return "failure"
	case latency >= j.latency:
		return "latency"
	case j.qerror > 0 && qerror >= j.qerror:
		return "qerror"
	default:
		return ""
	}
}

// Record appends one entry, evicting the oldest when the ring is full. Safe
// on a nil journal (no-op).
func (j *Journal) Record(e Entry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.entries[j.next] = e
	j.next = (j.next + 1) % len(j.entries)
	if j.count < len(j.entries) {
		j.count++
	} else {
		j.dropped++
	}
	j.mu.Unlock()
}

// Entries returns the journaled entries, oldest first. Safe on a nil journal
// (returns nil).
func (j *Journal) Entries() []Entry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, j.count)
	start := 0
	if j.count == len(j.entries) {
		start = j.next
	}
	for i := 0; i < j.count; i++ {
		out = append(out, j.entries[(start+i)%len(j.entries)])
	}
	return out
}

// Len returns the number of journaled entries. Safe on a nil journal (0).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Dropped returns how many entries the ring evicted. Safe on a nil journal.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// WriteJSONL serializes the journal as JSON Lines, oldest first — the
// /debug/slowlog wire format. Safe on a nil journal (writes nothing).
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Entries() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Waterfall converts a query's trace spans (exec.QueryStats.Spans) into the
// journal's compact span records, skipping the query-level span (its content
// lives in the entry fields).
func Waterfall(spans []trace.Span) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanRecord, 0, len(spans))
	for _, s := range spans {
		if s.Class == "query" {
			continue
		}
		out = append(out, SpanRecord{
			Name:            s.Name,
			Op:              s.Op,
			Proc:            s.Proc,
			Node:            s.Node,
			StartUS:         int64(s.Start / time.Microsecond),
			DurUS:           int64(s.Duration() / time.Microsecond),
			QueueWaitUS:     int64(s.QueueWait / time.Microsecond),
			TransferUS:      int64(s.Transfer / time.Microsecond),
			Abort:           s.Abort,
			Attempt:         s.Attempt,
			Rows:            s.Rows,
			OutBytes:        s.OutBytes,
			DecompressBytes: s.DecompressBytes,
		})
	}
	return out
}
