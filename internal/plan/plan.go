// Package plan defines physical query plans: trees of bulk operators in
// CoGaDB's operator-at-a-time model. Plans are built with the constructor
// functions (Scan, Join, Aggregate, ...) — the paper's SQL front end and
// Selinger-style strategic optimizer are orthogonal to its contribution, so
// the benchmark queries are expressed directly as physical plans.
package plan

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/table"
)

// Operator is one bulk operator: it consumes the complete outputs of its
// children (one batch per child) and produces its own, whose columns it has
// copied or left for their first reader to copy (engine.Batch).
type Operator interface {
	// Class returns the cost class of the operator.
	Class() cost.OpClass
	// Name returns a short human-readable description.
	Name() string
	// BaseColumns returns the base columns the operator reads directly from
	// the catalog (non-empty for leaf scans only). These drive caching and
	// data-driven placement.
	BaseColumns() []table.ColumnID
	// Execute runs the operator on real data. The kernel context selects the
	// worker pool intra-operator parallelism runs on; nil means serial, and
	// results are bit-identical at every worker count.
	Execute(ectx *engine.Ctx, cat *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error)
}

// Node is one operator in a plan tree.
type Node struct {
	id       int
	Op       Operator
	Children []*Node

	// EstInBytes, EstOutBytes, and EstRows are the compile-time estimates
	// set by Plan.EstimateSizes; compile-time heuristics plan with them,
	// run-time placement ignores them (paper §4: exact cardinalities at run
	// time). EstRows is also the "estimate" side of EXPLAIN ANALYZE's
	// estimate-vs-actual comparison and the misestimation metrics.
	EstInBytes  int64
	EstOutBytes int64
	EstRows     int64
}

// ID returns the node's plan-unique id (post-order, root last).
func (n *Node) ID() int { return n.id }

// NewNode wires an operator to its children.
func NewNode(op Operator, children ...*Node) *Node {
	return &Node{Op: op, Children: children}
}

// Plan is a rooted operator tree with stable node ids.
type Plan struct {
	Root  *Node
	nodes []*Node

	// estimatedFor is the catalog the Est fields were last computed against;
	// EstimateSizes returns early on a match. A published plan (plan cache,
	// shared by the pump, EXPLAIN and the journal) is therefore never written
	// again as long as it keeps running against that catalog. A bool would be
	// wrong: the figures run one plan object against the raw and the
	// Compressed() catalog, whose column bytes differ.
	estimatedFor *table.Catalog
}

// New numbers the tree in post-order (children before parents, root last)
// and returns the plan.
func New(root *Node) *Plan {
	p := &Plan{Root: root}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		n.id = len(p.nodes)
		p.nodes = append(p.nodes, n)
	}
	walk(root)
	return p
}

// Nodes returns all nodes in post-order.
func (p *Plan) Nodes() []*Node { return p.nodes }

// Leaves returns the nodes without children, in post-order.
func (p *Plan) Leaves() []*Node {
	var out []*Node
	for _, n := range p.nodes {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// BaseColumns returns the set of base columns the whole plan reads, in
// first-use order.
func (p *Plan) BaseColumns() []table.ColumnID {
	seen := make(map[table.ColumnID]bool)
	var out []table.ColumnID
	for _, n := range p.nodes {
		for _, id := range n.Op.BaseColumns() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// CheckOnEmpty runs the plan once over no rows — each leaf scan filters the
// empty row range and materializes the empty selection, every other operator
// executes on its children's empty batches — and returns the first error. The
// kernels hold every type rule and check it before they touch a row (an
// operand handed the empty selection scans nothing but still resolves its
// column and checks its constant, expr.And), so a statement that fails here
// is one that would fail on the data, and the planner keeps no second copy
// of the rules.
func (p *Plan) CheckOnEmpty(cat *table.Catalog) error {
	out := make([]*engine.Batch, len(p.nodes))
	for _, n := range p.nodes { // post-order: children first
		var err error
		if leaf, ok := n.Op.(ChunkableOp); ok {
			var none column.PosList
			if none, err = leaf.FilterChunk(nil, cat, 0, 0); err == nil {
				out[n.id], err = leaf.MaterializeResult(nil, cat, none)
			}
		} else {
			inputs := make([]*engine.Batch, len(n.Children))
			for i, c := range n.Children {
				inputs[i] = out[c.id]
			}
			out[n.id], err = n.Op.Execute(nil, cat, inputs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var render func(n *Node, depth int) string
	render = func(n *Node, depth int) string {
		s := ""
		for i := 0; i < depth; i++ {
			s += "  "
		}
		s += fmt.Sprintf("#%d %s [%s]\n", n.id, n.Op.Name(), n.Op.Class())
		for _, c := range n.Children {
			s += render(c, depth+1)
		}
		return s
	}
	return render(p.Root, 0)
}

// Default compile-time selectivity and size factors. Deliberately crude:
// the paper's point about compile-time placement (§4) is precisely that such
// estimates are unreliable.
const (
	estSelectivity   = 0.2
	estAggReduction  = 0.05
	estJoinExpansion = 1.0
)

// EstimateSizes fills EstInBytes/EstOutBytes/EstRows bottom-up using base
// column sizes and row counts from the catalog and fixed selectivity guesses.
// It is idempotent per catalog: a repeat call against the catalog it last
// ran against reads one field and writes nothing.
func (p *Plan) EstimateSizes(cat *table.Catalog) error {
	if cat != nil && p.estimatedFor == cat {
		return nil
	}
	for _, n := range p.nodes { // post-order: children first
		var in int64
		for _, id := range n.Op.BaseColumns() {
			b, err := cat.ColumnBytes(id)
			if err != nil {
				return fmt.Errorf("plan estimate: %w", err)
			}
			in += b
		}
		for _, c := range n.Children {
			in += c.EstOutBytes
		}
		n.EstInBytes = in
		switch n.Op.Class() {
		case cost.Selection:
			n.EstOutBytes = int64(float64(in) * estSelectivity)
		case cost.Join:
			var probe int64
			if len(n.Children) == 2 {
				probe = n.Children[1].EstOutBytes
			} else {
				probe = in / 2
			}
			n.EstOutBytes = int64(float64(probe) * estJoinExpansion)
		case cost.Aggregation:
			n.EstOutBytes = int64(float64(in) * estAggReduction)
		default: // sort, materialize, compute preserve volume
			n.EstOutBytes = in
		}
		if n.EstOutBytes < 64 {
			n.EstOutBytes = 64
		}
		n.EstRows = estRows(n, cat)
	}
	p.estimatedFor = cat
	return nil
}

// estRows estimates output cardinality with the same crude factors as the
// byte estimates: scans start from exact catalog row counts, everything above
// propagates child estimates through per-class reduction factors. The paper's
// point (§4) is that such estimates are unreliable — EXPLAIN surfaces them,
// and the misestimation histograms measure them against actuals.
// Children are already estimated (post-order caller).
func estRows(n *Node, cat *table.Catalog) int64 {
	clamp := func(r int64) int64 {
		if r < 1 {
			return 1
		}
		return r
	}
	if o, ok := n.Op.(*ScanOp); ok {
		rows := int64(0)
		if t, err := cat.Table(o.Table); err == nil {
			rows = int64(t.NumRows())
		}
		if o.Pred != nil {
			rows = int64(float64(rows) * estSelectivity)
		}
		return clamp(rows)
	}
	var childRows int64
	for _, c := range n.Children {
		if c.EstRows > childRows {
			childRows = c.EstRows
		}
	}
	switch n.Op.Class() {
	case cost.Selection:
		return clamp(int64(float64(childRows) * estSelectivity))
	case cost.Aggregation:
		return clamp(int64(float64(childRows) * estAggReduction))
	case cost.Join:
		if len(n.Children) == 2 {
			return clamp(int64(float64(n.Children[1].EstRows) * estJoinExpansion))
		}
		return clamp(childRows)
	default:
		if o, ok := n.Op.(*SortOp); ok && o.Limit > 0 && int64(o.Limit) < childRows {
			return clamp(int64(o.Limit))
		}
		return clamp(childRows)
	}
}
