package plan

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// ExplainVersion is the schema version of the EXPLAIN payload. Bump it when
// field meanings change so downstream consumers (CI smoke, dashboards) can
// detect drift instead of misreading. Version 2 renamed the analyze
// section's virtual-time "wall_us" to "vt_us" and sums each node's attempts
// before truncating to microseconds (trace.US).
const ExplainVersion = 2

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
	// produced by EXPLAIN ANALYZE (AttachActuals): the per-node fold of the
	// query's spans. Nil for plain EXPLAIN.
	Analyze *trace.NodeActuals `json:"analyze,omitempty"`

	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainExec is the query-level execution summary of an EXPLAIN ANALYZE
// payload, drawn from the query span and the per-node actuals.
type ExplainExec struct {
	// QueryID is the engine's query id ("q0001") — the span correlation key.
	QueryID string `json:"query_id"`
	// Outcome is "ok" or the query span's abort class ("failed", ...).
	Outcome string   `json:"outcome"`
	Latency trace.US `json:"latency_us"`
	Tenant  string   `json:"tenant,omitempty"`
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

// AttachActuals upgrades a plain EXPLAIN payload to EXPLAIN ANALYZE from the
// query's own record (exec.QueryStats.Spans): every node gains its per-node
// fold (status "missing" when no span reached it — shed queries and nodes
// past a mid-plan failure report missing, never fabricated zeros), and the
// payload gains an Exec summary from the per-query fold. outcome overrides
// the span-derived outcome when non-empty (the server knows shed/deadline
// classifications the engine cannot see).
func AttachActuals(payload *ExplainPayload, queryID string, spans []trace.Span, outcome string) {
	exec := &ExplainExec{QueryID: queryID, Outcome: "ok"}
	for _, q := range trace.FoldQueries(spans) { // one query: its own record
		exec.Latency, exec.Tenant = q.Latency, q.Tenant
		if q.Failed != "" {
			exec.Outcome = q.Failed
		}
	}
	if outcome != "" {
		exec.Outcome = outcome
	}
	actuals := trace.FoldNodes(spans) // in node id order

	var walk func(en *ExplainNode)
	walk = func(en *ExplainNode) {
		i, ok := slices.BinarySearchFunc(actuals, en.ID, func(a trace.NodeActuals, id int) int { return cmp.Compare(a.Node, id) })
		if ok {
			en.Analyze = &actuals[i]
		} else {
			en.Analyze = &trace.NodeActuals{Node: en.ID, Status: "missing"}
		}
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
