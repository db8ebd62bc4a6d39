package main

import (
	"strings"
	"testing"
)

// doc builds a result with every end-to-end metric at 100 on both workloads,
// then applies the edits.
func doc(mf *manifest, seed int, edits map[string]float64) *document {
	d := &document{Env: map[string]any{"seed": seed}}
	for _, name := range []string{"serve-hot-small", batchName} {
		r := &passResult{Workload: name, Correct: true, Attempted: 1000, Metrics: map[string]metric{}}
		for _, def := range mf.EndToEnd {
			r.Metrics[def.Name] = metric{Value: 100, Unit: def.Unit}
		}
		for key, v := range edits {
			if workload, metricName, _ := strings.Cut(key, "/"); workload == name {
				r.Metrics[metricName] = metric{Value: v, Unit: r.Metrics[metricName].Unit}
			}
		}
		d.Results = append(d.Results, r)
	}
	return d
}

func TestCompareAppliesTheManifestBounds(t *testing.T) {
	mf, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, def := range mf.EndToEnd {
		bounds[def.Name] = def.Bound
	}
	inside, outside := 100*(1-bounds["throughput_qps"]+0.01), 100*(1-bounds["throughput_qps"]-0.01)
	cases := []struct {
		name      string
		seedB     int
		edits     map[string]float64
		failed    int
		regressed bool
	}{
		{"identical", 1, nil, 0, false},
		{"throughput inside its bound", 1, map[string]float64{"serve-hot-small/throughput_qps": inside}, 0, false},
		{"throughput outside its bound", 1, map[string]float64{"serve-hot-small/throughput_qps": outside}, 0, true},
		{"throughput up is never a regression", 1, map[string]float64{"serve-hot-small/throughput_qps": 150}, 0, false},
		{"latency outside its bound", 1, map[string]float64{"serve-hot-small/wall_p50_ms": 100 * (1 + bounds["wall_p50_ms"] + 0.01)}, 0, true},
		{"batch virtual time off by a nanosecond per query", 1, map[string]float64{batchName + "/vt_ms_per_query": 100 + 1e-6}, 0, true},
		{"batch virtual time better is a change too", 1, map[string]float64{batchName + "/vt_ms_per_query": 100 - 1e-6}, 0, true},
		{"batch virtual time at another seed falls back to the bound", 2, map[string]float64{batchName + "/vt_ms_per_query": 100 + 1e-6}, 0, false},
		{"serve virtual time is not exact", 1, map[string]float64{"serve-hot-small/vt_ms_per_query": 100 + 1e-6}, 0, false},
		{"more failures", 1, nil, 2, true},
		{"failures inside the slack", 1, nil, 1, false},
	}
	for _, c := range cases {
		a, b := doc(mf, 1, nil), doc(mf, c.seedB, c.edits)
		b.Results[0].Failed = c.failed
		rows, regressed := compare(mf, a, b)
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, strings.Join(rows, "\n"))
		}
		if want := 1 + 2*(len(mf.EndToEnd)+1); len(rows) != want {
			t.Errorf("%s: %d rows, want %d", c.name, len(rows), want)
		}
	}

	// A wrong result in B regresses even when the counts agree, and a
	// workload missing from B is unresolved, not a pass.
	a, b := doc(mf, 1, nil), doc(mf, 1, nil)
	b.Results[1].Correct = false
	if _, regressed := compare(mf, a, b); !regressed {
		t.Error("an incorrect B passed")
	}
	b = doc(mf, 1, nil)
	b.Results = b.Results[:1]
	rows, regressed := compare(mf, a, b)
	if regressed || !strings.Contains(strings.Join(rows, "\n"), "unresolved") {
		t.Errorf("missing workload: regressed = %v, rows:\n%s", regressed, strings.Join(rows, "\n"))
	}
}
