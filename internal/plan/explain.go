package plan

import (
	"sort"
	"strings"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// ExplainVersion is the schema version of the EXPLAIN payload. Bump it when
// field meanings change so downstream consumers (CI smoke, dashboards) can
// detect drift instead of misreading.
const ExplainVersion = 1

// ExplainColumn is one base column a node reads, with its stored encoding.
type ExplainColumn struct {
	Name     string `json:"name"`
	Encoding string `json:"encoding"` // plain | dict | bitpack
	Bytes    int64  `json:"bytes"`
}

// ExplainNode is the JSON rendering of one plan node. Children appear in
// execution order (build side first for joins).
type ExplainNode struct {
	ID        int    `json:"id"`
	Kind      string `json:"kind"`
	Op        string `json:"op"`
	Class     string `json:"class"`
	Table     string `json:"table,omitempty"`
	Predicate string `json:"predicate,omitempty"`
	BuildSide string `json:"build_side,omitempty"`

	// Compression summarizes the stored encodings of the node's base
	// columns ("plain", "bitpack", "bitpack+dict", ...). Always present on
	// nodes that read base columns (scan, fetch); empty elsewhere.
	Compression string          `json:"compression,omitempty"`
	Columns     []ExplainColumn `json:"columns,omitempty"`

	EstRows     int64 `json:"est_rows"`
	EstInBytes  int64 `json:"est_in_bytes"`
	EstOutBytes int64 `json:"est_out_bytes"`

	// Placement is the compile-time processor decision ("cpu"/"gpu"), or
	// "runtime" when the strategy defers per-operator decisions to run time.
	Placement string `json:"placement"`

	// Analyze carries the node's execution actuals when the payload was
	// produced by EXPLAIN ANALYZE (AttachActuals); nil for plain EXPLAIN, so
	// pre-ANALYZE documents are byte-identical.
	Analyze *ExplainAnalyze `json:"analyze,omitempty"`

	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainAnalyze is the per-node actuals section of EXPLAIN ANALYZE,
// populated by correlating exec spans back to plan nodes by node id.
// Durations are virtual microseconds (integral and lossless at simulator
// resolution) summed across all attempts; rows/bytes come from the completed
// attempt only, so retries never double-count output.
type ExplainAnalyze struct {
	// Status is "ok" (a completed attempt was found), "partial" (the node
	// ran but every attempt aborted — durations are real, rows/bytes are
	// not), or "missing" (no span reached the tracer: the query was shed or
	// failed before this node started).
	Status string `json:"status"`
	// Processor is where the final attempt ran ("cpu"/"gpu"); empty when
	// status is "missing".
	Processor string `json:"processor,omitempty"`
	// Attempts counts execution attempts including retries and the CPU
	// fallback; 0 when status is "missing".
	Attempts int `json:"attempts"`
	// ActualRows and ActualBytes are the completed attempt's output; 0 when
	// no attempt completed (status != "ok" — flagged, not fabricated).
	ActualRows  int64 `json:"actual_rows"`
	ActualBytes int64 `json:"actual_bytes"`
	// WallUS, QueueWaitUS, and TransferUS sum across all attempts.
	WallUS      int64 `json:"wall_us"`
	QueueWaitUS int64 `json:"queue_wait_us"`
	TransferUS  int64 `json:"transfer_us"`
	// DecompressBytes is the volume materialized by decoding compressed
	// columns during the node's kernels, summed across attempts.
	DecompressBytes int64 `json:"decompress_bytes,omitempty"`
	// Pipeline fields come from the completed attempt of a node the engine
	// ran through the pipelined chunk executor; all omitted on serial nodes,
	// so pre-pipeline documents are byte-identical.
	PipelineDepth  int     `json:"pipeline_depth,omitempty"`
	PipelineChunks int64   `json:"pipeline_chunks,omitempty"`
	CPUChunks      int64   `json:"pipeline_cpu_chunks,omitempty"`
	OverlapPct     float64 `json:"overlap_pct,omitempty"`
}

// ExplainExec is the query-level execution summary of an EXPLAIN ANALYZE
// payload, drawn from the query span and the per-node actuals.
type ExplainExec struct {
	// QueryID is the engine's query id ("q0001") — the span correlation key.
	QueryID string `json:"query_id"`
	// Outcome is "ok" or the query span's abort class ("failed", ...).
	Outcome   string `json:"outcome"`
	LatencyUS int64  `json:"latency_us"`
	Tenant    string `json:"tenant,omitempty"`
	// QError is the worst per-node cardinality misestimate:
	// max(est/actual, actual/est) over nodes with both sides known. 0 when
	// no node had both.
	QError float64 `json:"q_error,omitempty"`
}

// ExplainPayload is the versioned EXPLAIN document served over /v1/explain
// and printed by the CLI.
type ExplainPayload struct {
	Version int    `json:"version"`
	SQL     string `json:"sql,omitempty"`
	Text    string `json:"text"`
	// Exec is the query-level execution summary; present only on EXPLAIN
	// ANALYZE payloads (AttachActuals).
	Exec *ExplainExec `json:"exec,omitempty"`
	Root *ExplainNode `json:"root"`
}

// Explain renders the plan as a JSON-serializable node tree. Plans not yet
// estimated against cat get their compile-time estimates filled (mutating the
// plan's Est fields); plans already estimated against it — e.g. cached plans
// shared across concurrent requests, estimated once at insert — are read
// without mutation.
// placement maps node id → processor for compile-time strategies; nil means
// every decision is deferred to run time.
func Explain(p *Plan, cat *table.Catalog, placement map[int]cost.ProcKind) (*ExplainPayload, error) {
	if err := p.EstimateSizes(cat); err != nil {
		return nil, err
	}
	var build func(n *Node) (*ExplainNode, error)
	build = func(n *Node) (*ExplainNode, error) {
		en := &ExplainNode{
			ID:          n.ID(),
			Op:          n.Op.Name(),
			Class:       n.Op.Class().String(),
			EstRows:     n.EstRows,
			EstInBytes:  n.EstInBytes,
			EstOutBytes: n.EstOutBytes,
			Placement:   "runtime",
		}
		if placement != nil {
			if kind, ok := placement[n.ID()]; ok {
				en.Placement = kind.String()
			}
		}
		describeOp(n.Op, en)
		if err := explainBaseColumns(n.Op, cat, en); err != nil {
			return nil, err
		}
		for _, c := range n.Children {
			ce, err := build(c)
			if err != nil {
				return nil, err
			}
			en.Children = append(en.Children, ce)
		}
		return en, nil
	}
	root, err := build(p.Root)
	if err != nil {
		return nil, err
	}
	return &ExplainPayload{Version: ExplainVersion, Text: p.String(), Root: root}, nil
}

// describeOp fills the operator-specific fields (kind, table, predicate,
// build side) from the concrete operator type.
func describeOp(op Operator, en *ExplainNode) {
	switch o := op.(type) {
	case *ScanOp:
		en.Kind = "scan"
		en.Table = o.Table
		if o.Pred != nil {
			en.Predicate = o.Pred.String()
		}
	case *FilterOp:
		en.Kind = "filter"
		en.Predicate = o.Pred.String()
	case *ProjectOp:
		en.Kind = "project"
	case *ComputeOp:
		en.Kind = "compute"
	case *JoinOp:
		en.Kind = "join"
		en.BuildSide = "left(" + o.LeftKey + ")"
	case *SemiJoinOp:
		en.Kind = "semijoin"
		en.BuildSide = "build(" + o.BuildKey + ")"
	case *AggregateOp:
		en.Kind = "aggregate"
	case *SortOp:
		en.Kind = "sort"
	case *FetchOp:
		en.Kind = "fetch"
		en.Table = o.Table
	case *IntersectOp:
		en.Kind = "intersect"
		en.Table = o.Table
	default:
		en.Kind = op.Class().String()
	}
}

// explainBaseColumns resolves the node's base columns against the catalog
// and summarizes their encodings. Nodes that read base columns always get a
// non-empty Compression, so consumers can rely on the field's presence.
func explainBaseColumns(op Operator, cat *table.Catalog, en *ExplainNode) error {
	ids := op.BaseColumns()
	if len(ids) == 0 {
		return nil
	}
	encodings := make(map[string]bool)
	for _, id := range ids {
		c, err := cat.Column(id)
		if err != nil {
			return err
		}
		enc := column.Encoding(c)
		encodings[enc] = true
		en.Columns = append(en.Columns, ExplainColumn{
			Name:     string(id),
			Encoding: enc,
			Bytes:    c.Bytes(),
		})
	}
	modes := make([]string, 0, len(encodings))
	for m := range encodings {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	en.Compression = strings.Join(modes, "+")
	return nil
}

// AttachActuals upgrades a plain EXPLAIN payload to EXPLAIN ANALYZE by
// correlating the query's exec spans back to plan nodes: every node gains an
// Analyze section (status "missing" when no span reached it — shed queries
// and nodes past a mid-plan failure report missing, never fabricated zeros),
// and the payload gains an Exec summary from the query-level span. spans is
// the query's own record (exec.QueryStats.Spans); outcome overrides the
// span-derived outcome when non-empty (the server knows shed/deadline
// classifications the engine cannot see).
func AttachActuals(payload *ExplainPayload, queryID string, spans []trace.Span, outcome string) {
	exec := &ExplainExec{QueryID: queryID, Outcome: "ok"}
	byNode := make(map[int][]trace.Span, len(spans))
	for _, s := range spans {
		if s.Class == "query" {
			exec.LatencyUS = int64(s.Duration() / time.Microsecond)
			exec.Tenant = s.Tenant
			if s.Abort != "" {
				exec.Outcome = s.Abort
			}
			continue
		}
		if s.Class == "chunk" {
			// Pipeline-stage spans are sub-attempt detail: counting them as
			// attempts would corrupt the retry accounting. The attempt span of
			// the pipelined operator already aggregates them.
			continue
		}
		byNode[s.Node] = append(byNode[s.Node], s)
	}
	if outcome != "" {
		exec.Outcome = outcome
	}

	var walk func(en *ExplainNode)
	walk = func(en *ExplainNode) {
		en.Analyze = analyzeNode(byNode[en.ID])
		if a := en.Analyze; a.Status == "ok" && en.EstRows > 0 && a.ActualRows > 0 {
			q := float64(en.EstRows) / float64(a.ActualRows)
			if q < 1 {
				q = 1 / q
			}
			if q > exec.QError {
				exec.QError = q
			}
		}
		for _, c := range en.Children {
			walk(c)
		}
	}
	if payload.Root != nil {
		walk(payload.Root)
	}
	payload.Exec = exec
}

// analyzeNode folds one node's attempt spans into its Analyze section.
func analyzeNode(spans []trace.Span) *ExplainAnalyze {
	a := &ExplainAnalyze{Status: "missing"}
	final := -1
	for _, s := range spans {
		a.Attempts++
		a.WallUS += int64(s.Duration() / time.Microsecond)
		a.QueueWaitUS += int64(s.QueueWait / time.Microsecond)
		a.TransferUS += int64(s.Transfer / time.Microsecond)
		a.DecompressBytes += s.DecompressBytes
		if s.Attempt >= final {
			final = s.Attempt
			a.Processor = s.Proc
		}
		if s.Abort == "" {
			a.Status = "ok"
			a.ActualRows = s.Rows
			a.ActualBytes = s.OutBytes
			if s.ChunkCount > 0 {
				a.PipelineDepth = s.PipelineDepth
				a.PipelineChunks = s.ChunkCount
				a.CPUChunks = s.CPUChunks
				a.OverlapPct = s.Overlap * 100
			}
		} else if a.Status == "missing" {
			a.Status = "partial"
		}
	}
	return a
}
