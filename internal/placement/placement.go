// Package placement implements the data placement manager of §3.2: the
// storage adviser that tracks how frequently and how recently each base
// column is accessed by query processing, and the background job
// (Algorithm 1) that periodically fills the co-processor's data cache with
// the most valuable columns and pins them there.
//
// Decoupling *data* placement from *operator* placement is what eliminates
// cache thrashing: one central component decides the cache contents, and
// operators follow the data (§3.1).
package placement

import (
	"context"
	"log/slog"
	"sort"

	"robustdb/internal/exec"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// Policy selects how Algorithm 1 ranks columns.
type Policy uint8

// Ranking policies (Appendix E compares them).
const (
	// LFU ranks by access count, descending — the paper's default.
	LFU Policy = iota
	// LRU ranks by last access, most recent first.
	LRU
)

// String returns the policy label.
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return "lfu"
}

// Tracker keeps the per-column access statistics of the storage manager:
// every column has an access counter incremented each time an operator
// accesses it, plus a recency clock.
type Tracker struct {
	counts map[table.ColumnID]int64
	last   map[table.ColumnID]int64
	clock  int64
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		counts: make(map[table.ColumnID]int64),
		last:   make(map[table.ColumnID]int64),
	}
}

// Record registers one access to each of the given columns.
func (t *Tracker) Record(ids ...table.ColumnID) {
	t.clock++
	for _, id := range ids {
		t.counts[id]++
		t.last[id] = t.clock
	}
}

// Count returns the access count of a column.
func (t *Tracker) Count(id table.ColumnID) int64 { return t.counts[id] }

// Manager is the data placement manager: tracker + Algorithm 1.
type Manager struct {
	Tracker *Tracker
	Policy  Policy
}

// NewManager creates a manager with the given ranking policy.
func NewManager(policy Policy) *Manager {
	return &Manager{Tracker: NewTracker(), Policy: policy}
}

// Desired computes the cache contents per Algorithm 1: columns sorted by
// descending value (access count for LFU, recency for LRU; ties by id for
// determinism), greedily packed while they fit into bufferBytes. Columns
// that were never accessed are not placed.
func (m *Manager) Desired(cat *table.Catalog, bufferBytes int64) []table.ColumnID {
	type ranked struct {
		id    table.ColumnID
		value int64
		bytes int64
	}
	var cols []ranked
	for id, cnt := range m.Tracker.counts {
		b, err := cat.ColumnBytes(id)
		if err != nil {
			continue // column disappeared from the catalog
		}
		value := cnt
		if m.Policy == LRU {
			value = m.Tracker.last[id]
		}
		cols = append(cols, ranked{id: id, value: value, bytes: b})
	}
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].value != cols[j].value {
			return cols[i].value > cols[j].value
		}
		return cols[i].id < cols[j].id
	})
	var used int64
	var out []table.ColumnID
	for _, c := range cols {
		if used+c.bytes > bufferBytes {
			continue // Algorithm 1 line 5: skip what does not fit
		}
		used += c.bytes
		out = append(out, c.id)
	}
	return out
}

// ApplyInstant installs the desired placement into the engine's cache
// without consuming virtual time: the paper's experimental setup pre-loads
// access structures into GPU memory before each benchmark run (§6.1).
// It evicts cached columns outside the desired set (Algorithm 1 line 9; a
// column still referenced by a running query is condemned and cleaned up at
// its last unreference, §3.2), caches the new ones (line 10), and — when pin
// is true — pins the placed set so operator-driven replacement cannot touch
// it (the Data-Driven contract of §3.1).
func (m *Manager) ApplyInstant(e *exec.Engine, desired []table.ColumnID, pin bool) error {
	want := make(map[table.ColumnID]bool, len(desired))
	for _, id := range desired {
		want[id] = true
	}
	for _, id := range e.Cache.Contents() {
		if !want[id] {
			if e.Cache.Pinned(id) {
				if err := e.Cache.Unpin(id); err != nil {
					return err
				}
			}
			e.Cache.Evict(id)
			traceDecision(e, "evict", id, "algorithm1-drop")
		}
	}
	for _, id := range desired {
		if !e.Cache.Contains(id) {
			b, err := e.Cat.ColumnBytes(id)
			if err != nil {
				return err
			}
			evicted, ok := e.Cache.Insert(id, b)
			for _, v := range evicted {
				traceDecision(e, "evict", v, "replacement")
			}
			if !ok {
				continue // cannot fit (pinned remainder); skip like line 5
			}
			traceDecision(e, "admit", id, "algorithm1")
			e.Metrics.PlacementTransfers.Inc()
		}
		if pin {
			if err := e.Cache.Pin(id); err != nil {
				return err
			}
			traceDecision(e, "pin", id, "algorithm1")
		}
	}
	logApply(e, desired, pin)
	return nil
}

// traceDecision emits one data-placement decision event; no-op with tracing
// off.
func traceDecision(e *exec.Engine, kind string, id table.ColumnID, reason string) {
	if e.Tracer == nil {
		return
	}
	e.Tracer.Event(trace.Event{At: e.Sim.Now(), Kind: kind, Subject: string(id), Reason: reason})
}

// logApply emits one structured summary of an Algorithm 1 application. The
// per-column decisions are already in the trace event stream; the log keeps
// to the operator-facing summary (how much was placed, whether it is pinned).
func logApply(e *exec.Engine, desired []table.ColumnID, pin bool) {
	if e.Log == nil || !e.Log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	e.Log.LogAttrs(context.Background(), slog.LevelInfo, "data placement applied",
		slog.String("component", "placement"),
		slog.Duration("vt", e.Sim.Now()),
		slog.String("mode", "instant"),
		slog.Int("columns", len(desired)),
		slog.Bool("pinned", pin),
		slog.Int64("cache_used_bytes", e.Cache.Used()))
}
