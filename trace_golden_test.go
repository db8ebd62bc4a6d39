package robustdb

// Golden-file test of the Chrome trace export: the engine is a deterministic
// discrete-event simulation, so a fixed seed and workload must produce a
// byte-identical trace_event file on every run and platform. Regenerate
// after an intentional schema or engine change with:
//
//	go test -run TestChromeTraceGolden -update-golden .

import (
	"bytes"
	"cmp"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenTraceRun executes the pinned workload and returns its tracer.
func goldenTraceRun(t *testing.T) *Tracer {
	t.Helper()
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 42})
	tr := NewTracer(0)
	dev := db.DeviceForWorkingSet(0.5)
	dev.Tracer = tr
	spec := Workload{Queries: SSBQueries()[:3], Users: 2}
	if _, _, err := db.RunWorkload(dev, DataDrivenChopping(), spec); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	tr := goldenTraceRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), tr.Events()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from %s (%d vs %d bytes); if intended, regenerate with -update-golden",
			path, buf.Len(), len(want))
	}
}

// TestChromeTraceRoundTrip proves the golden file is loadable: parsing the
// export back yields exactly the spans and events the tracer recorded.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := goldenTraceRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), tr.Events()); err != nil {
		t.Fatal(err)
	}
	spans, events, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// ReadChrome returns spans by start, ties by name, and events by time.
	want, wantEvents := tr.Spans(), tr.Events()
	slices.SortStableFunc(want, func(a, b TraceSpan) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Name, b.Name))
	})
	slices.SortStableFunc(wantEvents, func(a, b TraceEvent) int { return cmp.Compare(a.At, b.At) })
	if !slices.Equal(spans, want) || !slices.Equal(events, wantEvents) {
		t.Fatalf("round trip changed the trace: %d/%d spans, %d/%d events",
			len(spans), len(want), len(events), len(wantEvents))
	}
}

// TestTraceDeterminism re-runs the pinned workload and demands bit-identical
// traces: the foundation the golden file (and every replay debugging
// session) rests on.
func TestTraceDeterminism(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		tr := goldenTraceRun(t)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr.Spans(), tr.Events()); err != nil {
			t.Fatal(err)
		}
		runs[i] = buf.Bytes()
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two identical runs produced different traces")
	}
}
