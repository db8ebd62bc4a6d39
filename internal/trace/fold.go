package trace

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The two folds below are the only passes over a query's spans: every report
// of this package, EXPLAIN ANALYZE (plan.AttachActuals) and the slow-query
// journal's plan render their results, so two surfaces can never disagree
// about what one query did.

// US is a virtual duration kept to the nanosecond. It encodes in JSON as
// whole microseconds and prints likewise, truncated once: a sum is truncated,
// never its terms — the one rounding rule of every folded figure.
type US time.Duration

// MarshalJSON encodes the duration as an integral count of microseconds.
func (d US) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, int64(time.Duration(d)/time.Microsecond), 10), nil
}

// UnmarshalJSON reads what MarshalJSON wrote.
func (d *US) UnmarshalJSON(b []byte) error {
	us, err := strconv.ParseInt(string(b), 10, 64)
	*d = US(time.Duration(us) * time.Microsecond)
	return err
}

// String prints the duration truncated to the microsecond ("1.234ms").
func (d US) String() string { return time.Duration(d).Truncate(time.Microsecond).String() }

// NodeActuals is one plan node's attempts within one query, folded: the
// analyze section of an EXPLAIN ANALYZE node and a row of Slowest. Durations
// sum over every attempt; rows, bytes and the pipeline fields come from the
// completed attempt only, so retries never double-count output.
type NodeActuals struct {
	// Node is the plan node id and Op the final attempt's operator text; the
	// EXPLAIN node they annotate carries both already.
	Node int    `json:"-"`
	Op   string `json:"-"`
	// Status is "ok" (a completed attempt exists), "partial" (the node ran
	// but every attempt aborted: durations are real, rows and bytes are 0
	// because output rolls back) or "missing" (no span reached the node: the
	// query was shed or failed before it started; nothing is fabricated).
	Status string `json:"status"`
	// Processor is where the final attempt ran ("cpu"/"gpu"); empty when
	// missing.
	Processor string `json:"processor,omitempty"`
	// Attempts counts retries and the CPU fallback; 0 when missing.
	Attempts    int   `json:"attempts"`
	ActualRows  int64 `json:"actual_rows"`
	ActualBytes int64 `json:"actual_bytes"`
	// VT is the attempts' summed virtual run time, QueueWait their summed
	// wait for a worker slot and Transfer their summed bus time.
	VT        US `json:"vt_us"`
	QueueWait US `json:"queue_wait_us"`
	Transfer  US `json:"transfer_us"`
	// Pipeline fields are set only when the completed attempt ran through
	// the pipelined chunk executor.
	PipelineDepth  int     `json:"pipeline_depth,omitempty"`
	PipelineChunks int64   `json:"pipeline_chunks,omitempty"`
	CPUChunks      int64   `json:"pipeline_cpu_chunks,omitempty"`
	OverlapPct     float64 `json:"overlap_pct,omitempty"`

	final int // the highest attempt number folded so far
}

// FoldNodes folds one query's spans by plan node, in node id order. Query and
// chunk spans are skipped: a pipelined attempt's own span already aggregates
// its chunk stages, and counting them would corrupt the retry accounting.
func FoldNodes(spans []Span) []NodeActuals {
	out := make([]NodeActuals, 0, len(spans))
	for _, s := range spans {
		if s.Class == "query" || s.Class == "chunk" {
			continue
		}
		i := slices.IndexFunc(out, func(a NodeActuals) bool { return a.Node == s.Node })
		if i < 0 {
			i = len(out)
			out = append(out, NodeActuals{Node: s.Node, Status: "partial", final: -1})
		}
		a := &out[i]
		a.Attempts++
		a.VT += US(s.Duration())
		a.QueueWait += US(s.QueueWait)
		a.Transfer += US(s.Transfer)
		if s.Attempt >= a.final {
			a.final, a.Processor, a.Op = s.Attempt, s.Proc, s.Op
		}
		if s.Abort == "" {
			a.Status, a.ActualRows, a.ActualBytes = "ok", s.Rows, s.OutBytes
			if s.ChunkCount > 0 {
				a.PipelineDepth, a.PipelineChunks, a.CPUChunks = s.PipelineDepth, s.ChunkCount, s.CPUChunks
				a.OverlapPct = s.Overlap * 100
			}
		}
	}
	slices.SortFunc(out, func(a, b NodeActuals) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// QuerySummary is one query's spans, folded: a line of Summary and of
// SummaryJSON (tracereport -json), and the header of Waterfall, Slowest and
// PipelineView. A query whose query span left the ring is still folded, over
// the window its remaining spans cover, so no report drops it.
type QuerySummary struct {
	Query      string `json:"query"`
	Start      US     `json:"start_us"`
	Latency    US     `json:"latency_us"`
	Ops        int    `json:"ops"`
	GPUOps     int    `json:"gpu_ops"`
	CPUOps     int    `json:"cpu_ops"`
	AbortedOps int    `json:"aborted_ops"`
	// KernelWorkers is the largest kernel pool among the query's attempts
	// and Morsels their total; both omitted for serial traces.
	KernelWorkers int   `json:"kernel_workers,omitempty"`
	Morsels       int64 `json:"morsels,omitempty"`
	// Pipeline chunks sum over the pipelined attempts; OverlapPct is the
	// query span's transfer-overlap ratio. Omitted without pipelining.
	PipelineChunks    int64   `json:"pipeline_chunks,omitempty"`
	PipelineCPUChunks int64   `json:"pipeline_cpu_chunks,omitempty"`
	OverlapPct        float64 `json:"overlap_pct,omitempty"`
	// Failed is the query span's abort class.
	Failed string `json:"failed,omitempty"`
	// Off the wire: the submitting tenant, the deepest chunk buffer of the
	// pipelined attempts, and the query's attempt and chunk spans in
	// emission order (shared with the other summaries of one fold; read
	// only).
	Tenant        string `json:"-"`
	PipelineDepth int    `json:"-"`
	Spans         []Span `json:"-"`
}

// FoldQueries folds a trace's spans by query, in query id order.
func FoldQueries(spans []Span) []QuerySummary {
	// One copy, grouped by query: each group's query span first, the rest in
	// emission order. Every summary's Spans is its group.
	sorted := slices.Clone(spans)
	rest := func(s Span) int {
		if s.Class == "query" {
			return 0
		}
		return 1
	}
	slices.SortStableFunc(sorted, func(a, b Span) int {
		return cmp.Or(strings.Compare(a.Query, b.Query), rest(a)-rest(b))
	})
	var out []QuerySummary
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].Query == sorted[0].Query {
			n++
		}
		group := sorted[:n]
		sorted = sorted[n:]
		q := QuerySummary{Query: group[0].Query}
		if s := group[0]; s.Class == "query" {
			q.Start, q.Latency, q.Failed, q.Tenant = US(s.Start), US(s.Duration()), s.Abort, s.Tenant
			if s.Overlap > 0 {
				q.OverlapPct = s.Overlap * 100
			}
			group = group[1:]
		} else {
			start, end := group[0].Start, group[0].End
			for _, s := range group {
				start, end = min(start, s.Start), max(end, s.End)
			}
			q.Start, q.Latency = US(start), US(end-start)
		}
		q.Spans = slices.Clip(group)
		for _, s := range group {
			if s.Class == "chunk" {
				continue
			}
			q.Ops++
			switch {
			case s.Abort != "":
				q.AbortedOps++
			case s.Proc == "gpu":
				q.GPUOps++
			default:
				q.CPUOps++
			}
			q.KernelWorkers = max(q.KernelWorkers, s.KernelWorkers)
			q.Morsels += s.MorselCount
			if s.ChunkCount > 0 {
				q.PipelineChunks += s.ChunkCount
				q.PipelineCPUChunks += s.CPUChunks
				q.PipelineDepth = max(q.PipelineDepth, s.PipelineDepth)
			}
		}
		out = append(out, q)
	}
	return out
}
