package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilJournalIsDisabled(t *testing.T) {
	var j *Journal
	if got := j.Reason(time.Hour, 100, true); got != "" {
		t.Fatalf("nil journal Reason = %q, want \"\"", got)
	}
	j.Record(Entry{QueryID: "q0001"})
	if j.Entries() != nil || j.Len() != 0 || j.Dropped() != 0 {
		t.Fatal("nil journal should hold nothing")
	}
}

// TestDisabledJournalZeroAllocs pins the off-switch cost: with journaling
// disabled (nil journal) or a query under every gate, the per-query check is
// allocation-free — the always-on journal may ride in the hot path.
func TestDisabledJournalZeroAllocs(t *testing.T) {
	var off *Journal
	if n := testing.AllocsPerRun(200, func() {
		if off.Reason(time.Second, 100, true) != "" {
			t.Fatal("nil journal must gate nothing")
		}
	}); n != 0 {
		t.Fatalf("nil journal Reason allocates %.1f per call, want 0", n)
	}
	j := New(8, time.Hour, 1000)
	if n := testing.AllocsPerRun(200, func() {
		if j.Reason(time.Millisecond, 1, false) != "" {
			t.Fatal("fast query must not be journaled")
		}
	}); n != 0 {
		t.Fatalf("below-gate Reason allocates %.1f per call, want 0", n)
	}
}

func TestReasonGates(t *testing.T) {
	j := New(8, 50*time.Millisecond, 4)
	cases := []struct {
		latency time.Duration
		qerror  float64
		failed  bool
		want    string
	}{
		{10 * time.Millisecond, 1, false, ""},
		{50 * time.Millisecond, 1, false, "latency"},
		{90 * time.Millisecond, 1, false, "latency"},
		{10 * time.Millisecond, 4, false, "qerror"},
		{10 * time.Millisecond, 3.9, false, ""},
		{10 * time.Millisecond, 1, true, "failure"},
		{90 * time.Millisecond, 9, true, "failure"}, // failure wins
	}
	for _, c := range cases {
		if got := j.Reason(c.latency, c.qerror, c.failed); got != c.want {
			t.Errorf("Reason(%v, %v, %v) = %q, want %q",
				c.latency, c.qerror, c.failed, got, c.want)
		}
	}
}

func TestZeroThresholdJournalsEverything(t *testing.T) {
	j := New(8, 0, 0)
	if got := j.Reason(0, 0, false); got != "latency" {
		t.Fatalf("threshold 0 should journal a zero-latency query, got %q", got)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	j := New(4, 0, 0)
	for i := 0; i < 6; i++ {
		j.Record(Entry{QueryID: fmt.Sprintf("q%04d", i)})
	}
	got := j.Entries()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	if got[0].QueryID != "q0002" || got[3].QueryID != "q0005" {
		t.Fatalf("window = [%s..%s], want [q0002..q0005]", got[0].QueryID, got[3].QueryID)
	}
	if j.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", j.Dropped())
	}
}

func TestWriteJSONL(t *testing.T) {
	j := New(4, 0, 0)
	j.Record(Entry{QueryID: "q0001", Outcome: "ok", Reason: "latency", LatencyUS: 1500})
	j.Record(Entry{Outcome: "shed", Reason: "failure", Tenant: "t1"})
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["query_id"] != "q0001" || first["latency_us"] != float64(1500) {
		t.Fatalf("first line = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["outcome"] != "shed" {
		t.Fatalf("second line = %v", second)
	}
	if _, ok := second["query_id"]; ok {
		t.Fatal("shed entry should omit empty query_id")
	}
}
