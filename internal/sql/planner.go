package sql

import (
	"fmt"
	"slices"
	"sort"

	"robustdb/internal/engine"
	"robustdb/internal/expr"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

// PlanQuery parses and compiles a SQL statement into a physical plan over
// the catalog. The planner follows CoGaDB's strategic optimization: per-table
// selections are pushed into the scans, joins run as a chain of hash joins
// probing the largest (fact) table with filtered dimensions as build sides,
// and grouping/ordering/limit sit on top.
func PlanQuery(cat *table.Catalog, query string) (*plan.Plan, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Compile(cat, st)
}

// Compile turns a parsed statement into a physical plan that has run once
// over no rows (plan.CheckOnEmpty): a statement the kernels would refuse on
// the data — a string summed, a number compared with a string, a division by
// zero, a sort key the result does not have — is refused here.
func Compile(cat *table.Catalog, st *Statement) (*plan.Plan, error) {
	c := &compiler{cat: cat, st: st, owner: make(map[string]string)}
	p, err := c.compile()
	if err != nil {
		return nil, err
	}
	if err := p.CheckOnEmpty(cat); err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return p, nil
}

// joinCond is one equi-join condition between two tables' columns.
type joinCond struct{ left, right string }

type compiler struct {
	cat   *table.Catalog
	st    *Statement
	owner map[string]string // column → table
}

func (c *compiler) compile() (*plan.Plan, error) {
	if len(c.st.Tables) == 0 {
		return nil, fmt.Errorf("sql: no tables")
	}
	// Resolve column ownership. Column names are globally unique in the
	// engine's schemas (SSB/TPC-H style prefixes), so the bare name
	// identifies its table.
	for _, tbl := range c.st.Tables {
		t, err := c.cat.Table(tbl)
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		for _, name := range t.ColumnNames() {
			if other, dup := c.owner[name]; dup {
				return nil, fmt.Errorf("sql: column %q is ambiguous between %s and %s", name, other, tbl)
			}
			c.owner[name] = tbl
		}
	}

	// Split the WHERE conjuncts into per-table filters, join conditions,
	// and same-table column comparisons.
	filters := make(map[string][]expr.Predicate)
	var joins []joinCond
	for _, p := range c.st.Preds {
		lt, ok := c.owner[p.Col]
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", p.Col)
		}
		if p.RightCo != "" {
			rt, ok := c.owner[p.RightCo]
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", p.RightCo)
			}
			if lt == rt {
				op, err := cmpOp(p.Op)
				if err != nil {
					return nil, err
				}
				filters[lt] = append(filters[lt], expr.NewCmpCols(p.Col, op, p.RightCo))
				continue
			}
			if p.Op != "=" {
				return nil, fmt.Errorf("sql: only equi-joins are supported (%s %s %s)", p.Col, p.Op, p.RightCo)
			}
			joins = append(joins, joinCond{p.Col, p.RightCo})
			continue
		}
		pred, err := c.scalarPred(p)
		if err != nil {
			return nil, err
		}
		filters[lt] = append(filters[lt], pred)
	}

	// Which columns must each table deliver? Select items, group keys,
	// order keys, aggregate arguments, and join keys of later joins.
	needed := make(map[string]map[string]bool)
	need := func(col string) error {
		tbl, ok := c.owner[col]
		if !ok {
			return fmt.Errorf("sql: unknown column %q", col)
		}
		if needed[tbl] == nil {
			needed[tbl] = make(map[string]bool)
		}
		needed[tbl][col] = true
		return nil
	}
	// Beside an aggregate or under GROUP BY, a bare column has one value a
	// group only when the group is keyed by it.
	aggregated := len(c.st.GroupBy) > 0 ||
		slices.ContainsFunc(c.st.Items, func(item SelectItem) bool { return item.Agg != "" })
	for _, item := range c.st.Items {
		if aggregated && item.Agg == "" && !slices.Contains(c.st.GroupBy, item.Column) {
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", item.Column)
		}
		cols := item.columns()
		if item.Agg != "" && item.Agg != "count" && len(cols) == 0 {
			return nil, fmt.Errorf("sql: %s over a literal is not supported", item.Agg)
		}
		for _, col := range cols {
			if err := need(col); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range c.st.GroupBy {
		if err := need(g); err != nil {
			return nil, err
		}
	}
	for _, j := range joins {
		if err := need(j.left); err != nil {
			return nil, err
		}
		if err := need(j.right); err != nil {
			return nil, err
		}
	}
	// Same-table comparisons used as filters resolve against the scan's
	// output when the filter runs inside the scan, so nothing extra needed.

	// Build one scan per table.
	scans := make(map[string]*plan.Node)
	for _, tbl := range c.st.Tables {
		var cols []string
		for col := range needed[tbl] {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		if len(cols) == 0 && len(c.st.Tables) > 1 {
			// In a join, a table must at least contribute its join key
			// (registered above); an empty list means it is unreachable.
			return nil, fmt.Errorf("sql: table %q contributes no columns; remove it or join it", tbl)
		}
		// A projection-free single-table scan (COUNT(*) queries) emits row
		// ids, which aggregation counts like any other column.
		var pred expr.Predicate
		switch fs := filters[tbl]; len(fs) {
		case 0:
		case 1:
			pred = fs[0]
		default:
			pred = expr.NewAnd(fs...)
		}
		scans[tbl] = plan.Scan(tbl, cols, pred)
	}

	// Join order: probe the largest table (the fact side) with the others
	// as build sides, chaining along available join conditions.
	current, err := c.joinChain(scans, joins, needed)
	if err != nil {
		return nil, err
	}

	// Derived columns for aggregate expressions.
	aggSpecs, node, err := c.aggregates(current)
	if err != nil {
		return nil, err
	}
	current = node

	if len(aggSpecs) > 0 || len(c.st.GroupBy) > 0 {
		current = plan.Aggregate(current, c.st.GroupBy, aggSpecs)
	}
	if len(c.st.OrderBy) > 0 {
		keys := make([]engine.SortKey, len(c.st.OrderBy))
		for i, k := range c.st.OrderBy {
			keys[i] = engine.SortKey{Col: k.Column, Desc: k.Desc}
		}
		if c.st.Limit > 0 {
			current = plan.TopN(current, c.st.Limit, keys...)
		} else {
			current = plan.Sort(current, keys...)
		}
	} else if c.st.Limit > 0 {
		return nil, fmt.Errorf("sql: LIMIT requires ORDER BY (deterministic results)")
	}
	return plan.New(current), nil
}

// joinChain connects all scans: the largest table is the probe stream, and
// every other table joins as a build side over a parsed equi-condition.
func (c *compiler) joinChain(scans map[string]*plan.Node,
	joins []joinCond, needed map[string]map[string]bool) (*plan.Node, error) {
	if len(c.st.Tables) == 1 {
		return scans[c.st.Tables[0]], nil
	}
	// Pick the fact side: the table with the most rows.
	fact, most := "", -1
	for _, tbl := range c.st.Tables {
		t, err := c.cat.Table(tbl)
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		if t.NumRows() > most {
			fact, most = tbl, t.NumRows()
		}
	}
	current := scans[fact]
	carried := keysOf(needed[fact]) // columns available in the probe stream
	joined := map[string]bool{fact: true}
	remaining := append([]joinCond(nil), joins...)
	for len(remaining) > 0 {
		progress := false
		for i, j := range remaining {
			lt, rt := c.owner[j.left], c.owner[j.right]
			probeCol, buildCol, buildTbl := "", "", ""
			switch {
			case joined[lt] && !joined[rt]:
				probeCol, buildCol, buildTbl = j.left, j.right, rt
			case joined[rt] && !joined[lt]:
				probeCol, buildCol, buildTbl = j.right, j.left, lt
			case joined[lt] && joined[rt]:
				return nil, fmt.Errorf("sql: cyclic join condition %s = %s", j.left, j.right)
			default:
				continue // neither side reachable yet
			}
			buildCols := keysOf(needed[buildTbl])
			keepBuild := without(buildCols, buildCol)
			current = plan.Join(scans[buildTbl], current, buildCol, probeCol,
				keepBuild, carried)
			carried = append(keepBuild, carried...)
			joined[buildTbl] = true
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("sql: join graph is disconnected (missing a join condition)")
		}
	}
	for _, tbl := range c.st.Tables {
		if !joined[tbl] {
			return nil, fmt.Errorf("sql: table %q has no join condition", tbl)
		}
	}
	return current, nil
}

// aggregates compiles the aggregate select items, inserting Compute nodes
// for expression arguments, and returns the specs plus the (possibly
// extended) input node.
func (c *compiler) aggregates(current *plan.Node) ([]engine.AggSpec, *plan.Node, error) {
	var specs []engine.AggSpec
	tmp := 0
	for _, item := range c.st.Items {
		if item.Agg == "" {
			continue
		}
		fn, err := aggFunc(item.Agg)
		if err != nil {
			return nil, nil, err
		}
		spec := engine.AggSpec{Func: fn, As: item.outputName()}
		if item.Arg != nil {
			col, node, n, err := c.compileExpr(current, *item.Arg, tmp)
			if err != nil {
				return nil, nil, err
			}
			current, tmp = node, n
			spec.Col = col
		} else if fn != engine.Count {
			return nil, nil, fmt.Errorf("sql: %s needs an argument", item.Agg)
		}
		specs = append(specs, spec)
	}
	return specs, current, nil
}

// compileExpr lowers an expression to a column, adding Compute nodes as
// needed, and returns the column name carrying the value.
func (c *compiler) compileExpr(current *plan.Node, e Expr, tmp int) (string, *plan.Node, int, error) {
	if e.Op == "" {
		if e.Left.IsNum {
			return "", nil, 0, fmt.Errorf("sql: a bare literal is not an aggregate argument")
		}
		return e.Left.Column, current, tmp, nil
	}
	op, err := binOp(e.Op)
	if err != nil {
		return "", nil, 0, err
	}
	name := fmt.Sprintf("expr_%d", tmp)
	tmp++
	// Right side may be a nested (1 - b)-style expression.
	if e.Right.Column == nestedMarker {
		inner := *e.Nested
		innerCol, node, n, err := c.compileExpr(current, inner, tmp)
		if err != nil {
			return "", nil, 0, err
		}
		current, tmp = node, n
		if e.Left.IsNum {
			return "", nil, 0, fmt.Errorf("sql: literal op (expr) is not supported")
		}
		return name, plan.Compute(current, name, e.Left.Column, op, innerCol), tmp, nil
	}
	switch {
	case e.Left.IsNum && e.Right.IsNum:
		return "", nil, 0, fmt.Errorf("sql: constant expressions are not aggregate arguments")
	case e.Left.IsNum:
		return name, plan.ComputeConstLeft(current, name, e.Left.Num, op, e.Right.Column), tmp, nil
	case e.Right.IsNum:
		return name, plan.ComputeConst(current, name, e.Left.Column, op, e.Right.Num), tmp, nil
	default:
		return name, plan.Compute(current, name, e.Left.Column, op, e.Right.Column), tmp, nil
	}
}

// columns lists the columns a select item reads from its input.
func (item SelectItem) columns() []string {
	if item.Agg == "" {
		return []string{item.Column}
	}
	if item.Arg == nil {
		return nil
	}
	var out []string
	e := item.Arg
	if !e.Left.IsNum && e.Left.Column != "" {
		out = append(out, e.Left.Column)
	}
	if e.Right.Column == nestedMarker && e.Nested != nil {
		if !e.Nested.Left.IsNum && e.Nested.Left.Column != "" {
			out = append(out, e.Nested.Left.Column)
		}
		if !e.Nested.Right.IsNum && e.Nested.Right.Column != "" {
			out = append(out, e.Nested.Right.Column)
		}
	} else if !e.Right.IsNum && e.Right.Column != "" {
		out = append(out, e.Right.Column)
	}
	return out
}

// outputName is the result-column name of a select item.
func (item SelectItem) outputName() string {
	if item.Alias != "" {
		return item.Alias
	}
	if item.Agg != "" {
		if item.Arg != nil && item.Arg.Op == "" {
			return item.Agg + "_" + item.Arg.Left.Column
		}
		return item.Agg
	}
	return item.Column
}

func (c *compiler) scalarPred(p Pred) (expr.Predicate, error) {
	switch p.Op {
	case "between":
		return expr.NewBetween(p.Col, p.Value, p.Hi), nil
	case "in":
		return expr.NewIn(p.Col, p.List...), nil
	default:
		op, err := cmpOp(p.Op)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(p.Col, op, p.Value), nil
	}
}

func cmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	default:
		return 0, fmt.Errorf("sql: unknown comparison %q", s)
	}
}

func binOp(s string) (engine.BinOp, error) {
	switch s {
	case "+":
		return engine.Add, nil
	case "-":
		return engine.Sub, nil
	case "*":
		return engine.Mul, nil
	case "/":
		return engine.Div, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", s)
	}
}

func aggFunc(s string) (engine.AggFunc, error) {
	switch s {
	case "sum":
		return engine.Sum, nil
	case "count":
		return engine.Count, nil
	case "min":
		return engine.Min, nil
	case "max":
		return engine.Max, nil
	case "avg":
		return engine.Avg, nil
	default:
		return 0, fmt.Errorf("sql: unknown aggregate %q", s)
	}
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func without(list []string, drop string) []string {
	var out []string
	for _, s := range list {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}
