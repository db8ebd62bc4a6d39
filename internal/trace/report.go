package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// errWriter latches the first write error so the renderers can report it
// once at the end instead of checking every Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// Waterfall prints a per-query waterfall of the trace: one block per query in
// start order, one bar per operator attempt, offset and scaled inside the
// query's time window — the textual rendering of what chrome://tracing shows
// graphically. Output is deterministic for a deterministic trace. The
// returned error is the first write error, if any.
func Waterfall(w io.Writer, spans []Span, events []Event) error {
	ew := &errWriter{w: w}
	queries := FoldQueries(spans)
	if len(queries) == 0 {
		ew.printf("trace: no spans\n")
		return ew.err
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Start < queries[j].Start })

	const barWidth = 32
	for _, q := range queries {
		var list []Span
		for _, s := range q.Spans {
			if s.Class != "chunk" {
				list = append(list, s)
			}
		}
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].Start != list[j].Start {
				return list[i].Start < list[j].Start
			}
			return list[i].Name < list[j].Name
		})
		status := ""
		if q.Failed != "" {
			status = "  FAILED(" + q.Failed + ")"
		}
		start, window := time.Duration(q.Start), time.Duration(q.Latency)
		ew.printf("%s  start=%s  latency=%s  ops=%d (gpu=%d cpu=%d aborted=%d)%s\n",
			q.Query, fmtDur(start), fmtDur(window), q.Ops, q.GPUOps, q.CPUOps, q.AbortedOps, status)
		for _, s := range list {
			bar := renderBar(s.Start-start, s.Duration(), window, barWidth)
			mark := s.Proc
			if s.Abort != "" {
				mark = s.Proc + "!" + s.Abort
			}
			// Parallelism is shown only when a kernel pool was active, so
			// serial traces render byte-identically to older reports.
			par := ""
			if s.KernelWorkers > 0 {
				par = fmt.Sprintf(" workers=%d morsels=%d", s.KernelWorkers, s.MorselCount)
			}
			// Pipelined attempts annotate their chunk schedule; serial spans
			// carry no pipeline fields, keeping older reports byte-identical.
			if s.ChunkCount > 0 {
				par += fmt.Sprintf(" pipe=depth:%d,chunks:%d,cpu:%d,overlap:%.0f%%",
					s.PipelineDepth, s.ChunkCount, s.CPUChunks, s.Overlap*100)
			}
			ew.printf("  %-7s |%s| %-9s +%-9s %-9s wait=%-9s xfer=%-9s %s%s\n",
				trimQuery(s.Name, s.Query), bar, mark, fmtDur(s.Start-start),
				fmtDur(s.Duration()), fmtDur(s.QueueWait), fmtDur(s.Transfer), s.Op, par)
		}
	}

	if len(events) > 0 {
		counts := make(map[string]int)
		for _, ev := range events {
			counts[ev.Kind]++
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		ew.printf("events:")
		for _, k := range kinds {
			ew.printf(" %s=%d", k, counts[k])
		}
		ew.printf("\n")
	}
	return ew.err
}

// trimQuery shortens "q0001/op003" to "op003" inside its query block.
func trimQuery(name, query string) string {
	if len(name) > len(query)+1 && name[:len(query)] == query && name[len(query)] == '/' {
		return name[len(query)+1:]
	}
	return name
}

// renderBar draws an offset duration bar of the given width.
func renderBar(offset, dur, window time.Duration, width int) string {
	if window <= 0 {
		window = 1
	}
	lo := int(float64(offset) / float64(window) * float64(width))
	hi := int(float64(offset+dur) / float64(window) * float64(width))
	if lo < 0 {
		lo = 0
	}
	if hi > width {
		hi = width
	}
	if hi <= lo {
		hi = lo + 1 // every span is visible, however short
	}
	if lo >= width {
		lo, hi = width-1, width
	}
	bar := make([]byte, width)
	for i := range bar {
		switch {
		case i >= lo && i < hi:
			bar[i] = '='
		default:
			bar[i] = ' '
		}
	}
	return string(bar)
}

// fmtDur renders a virtual duration compactly and deterministically.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Nanosecond).String()
}

// Summary prints per-query aggregates of the trace (count, latency to the
// microsecond, as Slowest and SummaryJSON print it) — the quick textual
// overview tracereport leads with. The returned error is the first write
// error, if any.
func Summary(w io.Writer, spans []Span) error {
	ew := &errWriter{w: w}
	queries := FoldQueries(spans)
	ops := 0
	for _, q := range queries {
		ops += q.Ops
	}
	ew.printf("queries=%d operator-spans=%d\n", len(queries), ops)
	for _, q := range queries {
		ew.printf("  %-8s latency=%-12s ops=%-4d aborted=%d\n",
			q.Query, q.Latency, q.Ops, q.AbortedOps)
	}
	return ew.err
}

// Slowest prints the top-N queries by virtual latency, each with its per-node
// fold: summed vt/queue/transfer time across attempts, the processor of the
// final attempt ("!partial" when every attempt aborted), and the actual rows
// and bytes it produced — the offline twin of EXPLAIN ANALYZE, with the same
// numbers. n <= 0 means all queries. The returned error is the first write
// error.
func Slowest(w io.Writer, spans []Span, n int) error {
	ew := &errWriter{w: w}
	queries := FoldQueries(spans)
	if len(queries) == 0 {
		ew.printf("trace: no spans\n")
		return ew.err
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Latency > queries[j].Latency })
	if n > 0 && n < len(queries) {
		queries = queries[:n]
	}
	for rank, q := range queries {
		status := "ok"
		if q.Failed != "" {
			status = "FAILED(" + q.Failed + ")"
		}
		tenant := ""
		if q.Tenant != "" {
			tenant = "  tenant=" + q.Tenant
		}
		ew.printf("#%d %s  latency=%s  status=%s%s\n", rank+1, q.Query, q.Latency, status, tenant)
		for _, a := range FoldNodes(q.Spans) {
			proc := a.Processor
			if a.Status != "ok" {
				proc += "!" + a.Status
			}
			ew.printf("  node=%-3d %-7s vt=%-9s wait=%-9s xfer=%-9s attempts=%d rows=%-8d bytes=%-10d %s\n",
				a.Node, proc, a.VT, a.QueueWait, a.Transfer, a.Attempts, a.ActualRows, a.ActualBytes, a.Op)
		}
	}
	return ew.err
}

// SummaryJSON writes the per-query folds as JSON Lines: one object per query,
// sorted by query id, deterministic for a deterministic trace. The returned
// error is the first write or encode error, if any.
func SummaryJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, q := range FoldQueries(spans) {
		if err := enc.Encode(q); err != nil {
			return err
		}
	}
	return nil
}

// PipelineView prints the per-query pipeline report (tracereport -pipeline):
// for every query that ran pipelined operators, the chunk schedule (chunks,
// CPU-executed chunks, depth), the transfer-overlap ratio, and the busy
// fraction of each resource lane — h2d uploads, device compute, d2h
// downloads — within the query's window, computed as the interval union of
// the chunk stage spans. Queries without chunk spans are skipped; a trace
// with none reports that explicitly. The returned error is the first write
// error, if any.
func PipelineView(w io.Writer, spans []Span) error {
	ew := &errWriter{w: w}
	pipelined := false
	for _, q := range FoldQueries(spans) {
		if q.PipelineChunks == 0 {
			continue
		}
		pipelined = true
		window := time.Duration(q.Latency)
		ew.printf("%s  latency=%s  depth=%d  chunks=%d (cpu=%d)  overlap=%.0f%%\n",
			q.Query, fmtDur(window), q.PipelineDepth, q.PipelineChunks, q.PipelineCPUChunks, q.OverlapPct)
		for _, lane := range [...][2]string{{"h2d", "upload"}, {"compute", "compute"}, {"d2h", "download"}} {
			busy := busyTime(q.Spans, lane[1])
			ew.printf("  %-7s busy=%-9s util=%s\n", lane[0], fmtDur(busy), fmtPct(busy, window))
		}
	}
	if !pipelined {
		ew.printf("trace: no pipelined operators\n")
	}
	return ew.err
}

// busyTime returns the length of the interval union of the query's chunk
// stages of one kind ("upload", "download", or "compute" on the device) —
// the time during which at least one of them was active. Overlapping stages
// (concurrent links, parallel chunks) are counted once.
func busyTime(spans []Span, stage string) time.Duration {
	var iv []Span
	for _, s := range spans {
		if s.Class == "chunk" && s.Op == stage && (stage != "compute" || s.Proc == "gpu") {
			iv = append(iv, s)
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.SliceStable(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curStart, curEnd := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	return total + (curEnd - curStart)
}

// fmtPct renders part/whole as a percentage, guarding an empty window.
func fmtPct(part, whole time.Duration) string {
	if whole <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", float64(part)/float64(whole)*100)
}
