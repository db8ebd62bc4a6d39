// Package journal is the always-on slow-query journal: a bounded ring of
// fully analyzed query records — the EXPLAIN ANALYZE payload, the query's
// spans, the tenant, and the admission outcome — for every query that
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
	"math"
	"time"

	"robustdb/internal/plan"
	"robustdb/internal/trace"
)

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
	// Spans is the query's own record (exec.QueryStats.Spans, ending with
	// its query span), encoded as /debug/spans encodes spans; nil when
	// tracing was off or the query never executed.
	Spans []trace.Span `json:"spans,omitempty"`
}

// Journal is the bounded ring. Construct with New; the zero value is not
// usable (use a nil *Journal for "disabled").
type Journal struct {
	ring    *trace.Ring[Entry]
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
	return &Journal{ring: trace.NewRing[Entry](capacity), latency: latency, qerror: qerror}
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
	if j != nil {
		j.ring.Put(e)
	}
}

// Entries returns the journaled entries, oldest first. Safe on a nil journal
// (returns nil).
func (j *Journal) Entries() []Entry {
	if j == nil {
		return nil
	}
	return j.ring.Tail(math.MaxInt)
}

// Len returns the number of journaled entries. Safe on a nil journal (0).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.ring.Len()
}

// Dropped returns how many entries the ring evicted. Safe on a nil journal.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.ring.Dropped()
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
