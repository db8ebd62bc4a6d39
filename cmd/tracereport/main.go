// Command tracereport summarizes a Chrome trace_event JSON file written by
// `robustdb -trace` (or the library's WriteChromeTrace): a per-query
// aggregate table followed by a plain-text waterfall of every query — the
// terminal rendering of what chrome://tracing and ui.perfetto.dev show
// graphically.
//
// Usage:
//
//	tracereport [-summary|-waterfall|-json|-slowest N|-pipeline] trace.json
//
// With no mode flag both text reports are printed, summary first. -json
// emits the per-query summary as JSON Lines (one object per query) for
// scripting — jq, spreadsheet import, CI assertions. -slowest N prints the
// N slowest queries by virtual latency with a per-node breakdown (rows,
// bytes, attempts, vt/wait/transfer time per plan node — the numbers EXPLAIN
// ANALYZE attaches) — the first stop when chasing a slow query out of a
// recorded trace. -pipeline prints the per-query pipeline view of a
// pipelined run: chunk schedule, transfer overlap ratio, and the busy
// fraction of the h2d/compute/d2h lanes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"robustdb"
)

func main() {
	summaryOnly := flag.Bool("summary", false, "print only the per-query aggregate table")
	waterfallOnly := flag.Bool("waterfall", false, "print only the per-query waterfall")
	jsonOut := flag.Bool("json", false, "emit the per-query summary as JSON Lines (one object per query)")
	slowest := flag.Int("slowest", 0, "print the N slowest queries by virtual latency with per-node breakdowns")
	pipeline := flag.Bool("pipeline", false, "print the per-query pipeline view (chunk schedule, overlap, lane utilization)")
	flag.Parse()
	modes := 0
	for _, m := range []bool{*summaryOnly, *waterfallOnly, *jsonOut, *slowest > 0, *pipeline} {
		if m {
			modes++
		}
	}
	if flag.NArg() != 1 || modes > 1 || *slowest < 0 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [-summary|-waterfall|-json|-slowest N|-pipeline] trace.json")
		os.Exit(2)
	}
	if err := report(os.Stdout, flag.Arg(0), *summaryOnly, *waterfallOnly, *jsonOut, *pipeline, *slowest); err != nil {
		fmt.Fprintln(os.Stderr, "tracereport:", err)
		os.Exit(1)
	}
}

// report loads the trace file and renders the selected report(s) to w.
func report(w io.Writer, path string, summaryOnly, waterfallOnly, jsonOut, pipeline bool, slowest int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spans, events, err := robustdb.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if jsonOut {
		return robustdb.TraceSummaryJSON(w, spans)
	}
	if pipeline {
		return robustdb.TracePipeline(w, spans)
	}
	if slowest > 0 {
		return robustdb.TraceSlowest(w, spans, slowest)
	}
	if !waterfallOnly {
		if err := robustdb.TraceSummary(w, spans); err != nil {
			return err
		}
	}
	if !summaryOnly {
		if !waterfallOnly {
			fmt.Fprintln(w)
		}
		if err := robustdb.TraceWaterfall(w, spans, events); err != nil {
			return err
		}
	}
	return nil
}
