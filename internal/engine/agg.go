package engine

import (
	"fmt"
	"math"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggSpec describes one aggregate: Func applied to input column Col,
// emitted under name As. Count ignores Col.
type AggSpec struct {
	Func AggFunc
	Col  string
	As   string
}

// groupState is one group's accumulators plus the row its key columns are
// gathered from.
type groupState struct {
	firstRow int32
	accums   []accumulator
}

// groupPartial is the thread-local result of aggregating one morsel: groups
// in first-occurrence order within the morsel.
type groupPartial struct {
	groups map[string]*groupState
	order  []string
}

// GroupBy groups the batch by the key columns and computes the aggregates.
// Groups are emitted in order of first occurrence, which keeps results
// deterministic. Key columns appear first in the output, then aggregates in
// spec order. Grouping with no key columns produces a single global group
// (even for an empty input, matching SQL aggregate semantics).
//
// The aggregation always uses the canonical morsel decomposition: partials
// are computed per morsel and merged in morsel order, even under a nil
// (serial) ctx, so float accumulation order — and therefore every output
// bit — is independent of the worker count. Each morsel reads its rows of
// every key and aggregate input column once, as a block (column.Reader), so
// a compressed column is decoded a block at a time, not a row at a time.
func GroupBy(ctx *Ctx, b *Batch, keys []string, aggs []AggSpec) (*Batch, error) {
	keyCols := make([]column.Column, len(keys))
	keyReads := make([]keyReader, len(keys))
	for i, k := range keys {
		c, err := b.column(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
		keyCols[i] = c
		if keyReads[i], err = groupKeyReader(c); err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
	}
	aggReads := make([]func(lo, hi int, scratch []float64) []float64, len(aggs)) // nil for Count
	for i, a := range aggs {
		if a.Func > Avg {
			return nil, fmt.Errorf("aggregate: unknown function %v", a.Func)
		}
		if a.Func == Count {
			continue
		}
		c, err := b.column(ctx, a.Col)
		if err != nil {
			return nil, fmt.Errorf("aggregate %s(%s): %w", a.Func, a.Col, err)
		}
		read, ok := column.Reader[float64](c)
		if !ok {
			return nil, fmt.Errorf("aggregate %s(%s): column %s is not numeric", a.Func, a.Col, c.Name())
		}
		aggReads[i] = read
	}
	mkAccums := func() []accumulator {
		accums := make([]accumulator, len(aggs))
		for i, a := range aggs {
			accums[i] = newAccumulator(a.Func)
		}
		return accums
	}

	// RLE fast path: when every key column and every aggregate input column
	// exposes maximal equal-value runs, a whole run is one key lookup and one
	// O(1) accumulator fold instead of per-row work. Runs are clipped to
	// morsel boundaries, so the decomposition — and therefore every output
	// bit — stays identical at any worker count.
	runCols, runAware := runColumns(b, keyCols, aggs)

	n := b.NumRows()
	numMorsels := par.Morsels(n)
	partials := make([]groupPartial, numMorsels)
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		keyVals := make([][]int64, len(keys))
		for i, read := range keyReads {
			scratch := par.GetInt64(hi - lo)
			defer par.PutInt64(scratch)
			keyVals[i] = read(lo, hi, scratch)
		}
		aggVals := make([][]float64, len(aggs))
		for i, read := range aggReads {
			if read != nil {
				scratch := par.GetFloat64(hi - lo)
				defer par.PutFloat64(scratch)
				aggVals[i] = read(lo, hi, scratch)
			}
		}
		local := groupPartial{groups: make(map[string]*groupState)}
		keyBuf := make([]byte, 0, 64)
		for row := lo; row < hi; {
			end := row + 1
			if runAware {
				end = hi
				for _, rc := range runCols {
					if e := rc.RunEnd(row); e < end {
						end = e
					}
				}
			}
			keyBuf = keyBuf[:0]
			for _, kv := range keyVals {
				keyBuf = appendGroupKey(keyBuf, uint64(kv[row-lo]))
			}
			// Looked up by the bytes (no conversion is made for a map index
			// expression); the key string is allocated once per group.
			g, ok := local.groups[string(keyBuf)]
			if !ok {
				k := string(keyBuf)
				g = &groupState{firstRow: int32(row), accums: mkAccums()}
				local.groups[k] = g
				local.order = append(local.order, k)
			}
			for i, acc := range g.accums {
				var v float64
				if aggVals[i] != nil {
					v = aggVals[i][row-lo]
				}
				acc.addRun(v, end-row)
			}
			row = end
		}
		partials[mi] = local
	})

	// Merge partials in morsel order: the global first-occurrence order (and
	// every accumulator's fold order) matches a serial front-to-back scan.
	var groups map[string]*groupState
	var order []string
	if numMorsels == 1 {
		groups, order = partials[0].groups, partials[0].order
	} else {
		groups = make(map[string]*groupState)
		for _, pt := range partials {
			for _, k := range pt.order {
				pg := pt.groups[k]
				g, ok := groups[k]
				if !ok {
					groups[k] = pg
					order = append(order, k)
					continue
				}
				for i, acc := range g.accums {
					acc.merge(pg.accums[i])
				}
			}
		}
	}
	if len(keys) == 0 && len(order) == 0 {
		// Global aggregate over an empty input still yields one row.
		groups[""] = &groupState{firstRow: 0, accums: mkAccums()}
		order = append(order, "")
	}

	// Materialize: key columns gathered at group representatives, aggregates
	// from the accumulators.
	repr := make([]int32, len(order))
	for i, k := range order {
		repr[i] = groups[k].firstRow
	}
	out := make([]column.Column, 0, len(keys)+len(aggs))
	for _, kc := range keyCols {
		out = append(out, kc.Gather(repr))
	}
	for i, a := range aggs {
		vals := make([]float64, len(order))
		for j, k := range order {
			vals[j] = groups[k].accums[i].result()
		}
		out = append(out, column.NewFloat64(a.As, vals))
	}
	return NewBatch(out...)
}

// groupKeyReader reads a grouping column as integers that are equal exactly
// where the values are: integer and date columns of any encoding through
// column.Reader, strings as their dictionary codes, floats as their bit
// patterns with the two zeros folded into one and all NaNs into another.
func groupKeyReader(c column.Column) (keyReader, error) {
	switch c := c.(type) {
	case *column.StringColumn:
		return codeReader(c.Codes, nil), nil
	case *column.Float64Column:
		return func(lo, hi int, scratch []int64) []int64 {
			keys := sized(scratch, hi-lo)
			for i, v := range c.Values[lo:hi] {
				switch {
				case v == 0:
					v = 0 // −0 groups with +0
				case v != v:
					v = math.NaN()
				}
				keys[i] = int64(math.Float64bits(v))
			}
			return keys
		}, nil
	}
	if read, ok := column.Reader[int64](c); ok {
		return read, nil
	}
	return nil, fmt.Errorf("column %s has ungroupable type %T", c.Name(), c)
}

// accumulator folds rows into one aggregate value. addRun folds k
// consecutive rows known to carry the value v in the aggregate's input
// column (the RLE fast path); addRun(v, 1) is the per-row case. merge folds
// another accumulator of the same concrete type into the receiver; GroupBy
// calls it in morsel order, which keeps float folds deterministic.
//
// Run folds compute sums as value×count. For the integer-valued columns RLE
// encodes this is exact (and therefore bit-identical to repeated addition)
// as long as intermediate sums stay within float64's 2^53 integer range —
// the property the compressed determinism suite pins.
type accumulator interface {
	addRun(v float64, k int)
	merge(other accumulator)
	result() float64
}

// runColumn is implemented by run-length-encoded columns: RunEnd(i) is the
// exclusive end of the maximal equal-value run containing row i.
type runColumn interface{ RunEnd(i int) int }

// runColumns collects the run views of every column the grouping reads
// (keys and aggregate inputs). ok is true only when all of them expose
// runs; Count aggregates read no column and never disqualify the fast path.
func runColumns(b *Batch, keyCols []column.Column, aggs []AggSpec) ([]runColumn, bool) {
	var out []runColumn
	for _, kc := range keyCols {
		rc, ok := kc.(runColumn)
		if !ok {
			return nil, false
		}
		out = append(out, rc)
	}
	for _, a := range aggs {
		if a.Func == Count {
			continue
		}
		rc, ok := b.MustColumn(a.Col).(runColumn)
		if !ok {
			return nil, false
		}
		out = append(out, rc)
	}
	return out, true
}

func newAccumulator(f AggFunc) accumulator {
	switch f {
	case Sum:
		return &sumAcc{}
	case Count:
		return &countAcc{}
	case Min:
		return &minAcc{}
	case Max:
		return &maxAcc{}
	default:
		return &avgAcc{}
	}
}

type countAcc struct{ n int64 }

func (a *countAcc) addRun(_ float64, k int) { a.n += int64(k) }
func (a *countAcc) merge(o accumulator)     { a.n += o.(*countAcc).n }
func (a *countAcc) result() float64         { return float64(a.n) }

type sumAcc struct{ sum float64 }

func (a *sumAcc) addRun(v float64, k int) {
	if k == 1 {
		a.sum += v
	} else {
		a.sum += v * float64(k)
	}
}
func (a *sumAcc) merge(o accumulator) { a.sum += o.(*sumAcc).sum }
func (a *sumAcc) result() float64     { return a.sum }

type minAcc struct {
	min  float64
	seen bool
}

func (a *minAcc) addRun(v float64, _ int) {
	if !a.seen || v < a.min {
		a.min, a.seen = v, true
	}
}
func (a *minAcc) merge(o accumulator) {
	b := o.(*minAcc)
	if b.seen && (!a.seen || b.min < a.min) {
		a.min, a.seen = b.min, true
	}
}
func (a *minAcc) result() float64 { return a.min }

type maxAcc struct {
	max  float64
	seen bool
}

func (a *maxAcc) addRun(v float64, _ int) {
	if !a.seen || v > a.max {
		a.max, a.seen = v, true
	}
}
func (a *maxAcc) merge(o accumulator) {
	b := o.(*maxAcc)
	if b.seen && (!a.seen || b.max > a.max) {
		a.max, a.seen = b.max, true
	}
}
func (a *maxAcc) result() float64 { return a.max }

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) addRun(v float64, k int) {
	if k == 1 {
		a.sum += v
	} else {
		a.sum += v * float64(k)
	}
	a.n += int64(k)
}
func (a *avgAcc) merge(o accumulator) {
	b := o.(*avgAcc)
	a.sum += b.sum
	a.n += b.n
}
func (a *avgAcc) result() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// appendGroupKey serializes one key column's value into buf so that equal
// values produce equal byte strings and different columns cannot alias.
func appendGroupKey(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56),
		0xfe) // separator
}
