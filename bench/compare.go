package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactOnBatch is the end-to-end metric that is virtual time. On
// batch-contention virtual time replays bit for bit from the seed: at equal
// seeds any difference at all is a change of behaviour, so its bound there
// is zero in both directions.
const exactOnBatch = "vt_ms_per_query"

// failedSlack is how much the failed share of a workload may grow (absolute).
const failedSlack = 0.001

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compare applies BENCHMARK.json's bounds to two results, A the base and B
// the candidate. It returns one printable row per workload and end-to-end
// metric — value in A, in B, their ratio with A as its base, and the verdict
// — and whether anything regressed.
func compare(mf *manifest, a, b *document) (rows []string, regressed bool) {
	sameSeed := fmt.Sprint(a.Env["seed"]) == fmt.Sprint(b.Env["seed"])
	row := func(format string, args ...any) { rows = append(rows, fmt.Sprintf(format, args...)) }
	row("%-18s %-18s %14s %14s %9s  %s", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, ra := range a.Results {
		if ra.Traced {
			continue // per-layer metrics have no bound
		}
		var rb *passResult
		for _, r := range b.Results {
			if r.Workload == ra.Workload && !r.Traced {
				rb = r
			}
		}
		if rb == nil {
			row("%-18s %-18s %14s %14s %9s  unresolved (not in B)", ra.Workload, "*", "", "", "")
			continue
		}
		for _, def := range mf.EndToEnd {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			verdict := "ok"
			switch {
			case va == 0:
				verdict = "unresolved (no base)"
			case def.Name == exactOnBatch && ra.Workload == batchName && sameSeed:
				if va != vb {
					verdict = "regressed (must be exact)"
				}
			case def.Better == "lower" && vb > va*(1+def.Bound), def.Better == "higher" && vb < va*(1-def.Bound):
				verdict = fmt.Sprintf("regressed (bound %g of A)", def.Bound)
			}
			if verdict[0] == 'r' {
				regressed = true
			}
			row("%-18s %-18s %14.6f %14.6f %9.4f  %s", ra.Workload, def.Name, va, vb, ratio(vb, va), verdict)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if fb > fa+failedSlack || (ra.Correct && !rb.Correct) {
			verdict, regressed = "regressed", true
		}
		row("%-18s %-18s %14.6f %14.6f %9s  %s", ra.Workload, "failed_ratio", fa, fb, "", verdict)
	}
	return rows, regressed
}
