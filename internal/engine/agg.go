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

// groupPartial is what one morsel — or, after the merge, the input — groups
// to: its groups in first-occurrence order, flat.
type groupPartial struct {
	first []int32   // group → the row it was first seen at
	keys  [][]int64 // key column → group → key, what the merge numbers again
	aggs  []aggState
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
// bit — is independent of the worker count. A morsel is two passes over
// columns, each key and aggregate input read once as a block
// (column.Reader): its rows are numbered by key tuple (numberGroups), then
// every aggregate is folded by group number into a flat array (aggState).
// The merge is the same two passes over the partials' groups. DESIGN.md §23.
func GroupBy(ctx *Ctx, b *Batch, keys []string, aggs []AggSpec) (*Batch, error) {
	return groupBy(ctx, b, keys, aggs, layoutAuto)
}

// groupBy is GroupBy with the slot table's layout for tests to force.
func groupBy(ctx *Ctx, b *Batch, keys []string, aggs []AggSpec, layout joinLayout) (*Batch, error) {
	n := b.NumRows()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("group by: %d rows, int32 positions cannot address them", n)
	}
	keySrc, keyAt := make([]column.Column, len(keys)), make([][]int32, len(keys))
	keyReads := make([]keyReader, len(keys))
	for i, k := range keys {
		c, err := b.find(k)
		if err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
		keySrc[i], keyAt[i] = c.stored()
		if keyReads[i], err = groupKeyReader(keySrc[i], keyAt[i]); err != nil {
			return nil, fmt.Errorf("group by: %w", err)
		}
	}
	folds := make([]aggInput, len(aggs))
	for i, a := range aggs {
		if a.Func > Avg {
			return nil, fmt.Errorf("aggregate: unknown function %v", a.Func)
		}
		if a.Func == Count {
			folds[i] = foldInput[float64](Count, nil)
			continue
		}
		c, err := b.find(a.Col)
		if err != nil {
			return nil, fmt.Errorf("aggregate %s(%s): %w", a.Func, a.Col, err)
		}
		if folds[i] = numericInput(a.Func, c); folds[i] == nil {
			return nil, fmt.Errorf("aggregate %s(%s): column %s is not numeric", a.Func, a.Col, c.name)
		}
	}

	partials := make([]groupPartial, par.Morsels(n))
	ctx.forEachMorselNoErr(n, func(mi, lo, hi int) {
		keyVals := make([][]int64, len(keys))
		for i, read := range keyReads {
			scratch := par.Get[int64](hi - lo)
			defer par.Put(scratch)
			keyVals[i] = read(lo, hi, scratch)
		}
		gid := par.Get[int32](hi - lo)[:hi-lo]
		defer par.Put(gid)
		pt := &partials[mi]
		pt.first = numberGroups(keyVals, gid, layout)
		if len(partials) > 1 {
			pt.keys = make([][]int64, len(keys))
			for i, kv := range keyVals {
				pt.keys[i] = make([]int64, len(pt.first))
				for g, row := range pt.first {
					pt.keys[i][g] = kv[row]
				}
			}
		}
		for g := range pt.first {
			pt.first[g] += int32(lo)
		}
		pt.aggs = make([]aggState, len(aggs))
		for i, a := range aggs {
			pt.aggs[i] = newAggState(a.Func, len(pt.first))
			folds[i](&pt.aggs[i], gid, lo, hi)
		}
	})

	// Merge the partials in morsel order: the global first-occurrence order
	// (and every aggregate's fold order) matches a serial front-to-back scan.
	// Their groups are numbered by their stored tuples as rows are, and folded
	// as rows are, a partial's sums and counts in place of a row's value and 1.
	var all groupPartial
	if len(partials) == 1 {
		all = partials[0]
	} else if len(partials) > 1 {
		total := 0
		for _, pt := range partials {
			total += len(pt.first)
		}
		firsts, tuples := make([]int32, 0, total), make([][]int64, len(keys))
		for i := range tuples {
			tuples[i] = make([]int64, 0, total)
		}
		for _, pt := range partials {
			firsts = append(firsts, pt.first...)
			for i := range tuples {
				tuples[i] = append(tuples[i], pt.keys[i]...)
			}
		}
		gid := make([]int32, len(firsts))
		all.first = numberGroups(tuples, gid, layout)
		all.aggs = make([]aggState, len(aggs))
		for i, a := range aggs {
			all.aggs[i] = newAggState(a.Func, len(all.first))
			off := 0
			for _, pt := range partials {
				fold(&all.aggs[i], a.Func, gid[off:off+len(pt.first)], pt.aggs[i].val, pt.aggs[i].cnt)
				off += len(pt.first)
			}
		}
		for g, at := range all.first {
			all.first[g] = firsts[at]
		}
	}

	// Materialize: key columns gathered at the groups' first rows — a pending
	// one's source at their positions — and aggregates from their arrays.
	out := make([]column.Column, 0, len(keys)+len(aggs))
	for i, src := range keySrc {
		rows := all.first
		if at := keyAt[i]; at != nil {
			rows = make([]int32, len(all.first))
			for g, r := range all.first {
				rows[g] = at[r]
			}
		}
		out = append(out, src.Gather(rows))
	}
	for i, a := range aggs {
		var vals []float64
		switch {
		case n > 0:
			vals = all.aggs[i].result(a.Func)
		case len(keys) == 0:
			vals = make([]float64, 1) // a global aggregate over no rows is still one row, of zeros
		}
		out = append(out, column.NewFloat64(a.As, vals))
	}
	return NewBatch(out...)
}

// numberGroups numbers the rows whose key tuple is (cols[0][j], cols[1][j],
// …) by tuple, in order of first occurrence: gid[j] becomes row j's group
// and first[g] the row group g was first seen at; len(gid) ≥ 1 is the row
// count. The tuple is reduced to one integer first, mixed-radix over the
// domains [min, max] the columns span in these very rows (a key column
// gathered out of a join has no header or dictionary to ask), and the
// integers are numbered by one slot table (numberCodes). All arithmetic is
// unsigned, as buildJoinTable's is. Two factors below 2^32 multiply inside
// 64 bits; one that is not — a float column's bit patterns, integers at both
// ends of int64, the product of the columns so far — is numbered on its own
// by the same table first, which leaves it below the row count. A single
// key is numbered as it is, against its own domain: no code array.
func numberGroups(cols [][]int64, gid []int32, layout joinLayout) (first []int32) {
	if len(cols) == 1 {
		mn, mx := span(cols[0])
		return numberCodes(cols[0], mn, uint64(mx)-uint64(mn), layout, gid)
	}
	const half = 1 << 32
	code := par.Get[int64](len(gid))[:len(gid)]
	defer par.Put(code)
	clear(code)
	var dom uint64 // the codes so far lie in [0, dom]
	for _, kv := range cols {
		mn, mx := span(kv)
		width := uint64(mx) - uint64(mn)
		if width == 0 {
			continue // one value: nothing to tell groups apart by
		}
		if dom != 0 && width >= half {
			own := make([]int64, len(kv))
			for j, k := range kv {
				own[j] = k - mn
			}
			kv, mn, width = own, 0, renumber(own, width, gid)
		}
		if dom >= half {
			dom = renumber(code, dom, gid)
		}
		for j, k := range kv[:len(code)] {
			code[j] = code[j]*int64(width+1) + (k - mn) // wraps as the unsigned arithmetic does
		}
		dom = dom*(width+1) + width
	}
	return numberCodes(code, 0, dom, layout, gid)
}

// span returns the least and the greatest of keys, which are not empty.
func span(keys []int64) (mn, mx int64) {
	mn, mx = keys[0], keys[0]
	for _, k := range keys {
		mn, mx = min(mn, k), max(mx, k)
	}
	return mn, mx
}

// renumber replaces each of the codes, which lie in [0, dom], by its number
// among them (gid is scratch) and returns the new, dense dom. Too wide to
// multiply is too wide for a direct table by any rule.
func renumber(code []int64, dom uint64, gid []int32) uint64 {
	first := numberCodes(code, 0, dom, layoutHash, gid)
	for j, g := range gid {
		code[j] = int64(g)
	}
	return uint64(len(first) - 1)
}

// numberCodes is the slot table of the group-by: it numbers the codes, which
// lie in [base, base+dom], in order of first occurrence, as numberGroups
// states. The table is direct-addressed, a slot per code of the domain, where
// the density rule the join applies to its probe side allows (every row here
// is a probe, and inserts on a miss), and the join's open-addressing slots
// otherwise — sized for every row being a group of its own, so they never
// grow.
func numberCodes(code []int64, base int64, dom uint64, layout joinLayout, gid []int32) (first []int32) {
	if dom == 0 { // no key column, or none with two values: one group
		clear(gid)
		return []int32{0}
	}
	if layout == layoutDirect || layout == layoutAuto && dense(dom, 0, len(code)) {
		slots := make([]int32, dom+1) // code → group + 1
		for j, c := range code {
			s := uint64(c) - uint64(base)
			g := slots[s]
			if g == 0 {
				first = append(first, int32(j))
				g = int32(len(first))
				slots[s] = g
			}
			gid[j] = g - 1
		}
		return first
	}
	t := newSlotTable(len(code), 0, nil)
	for j, c := range code {
		s := t.slot(c, fibHash(c))
		if t.head[s] == 0 {
			first = append(first, int32(j))
			t.key[s], t.head[s] = c, int32(len(first))
		}
		gid[j] = t.head[s] - 1
	}
	return first
}

// aggState is one aggregate's running value for every group of a partial,
// flat: val the sums (Sum, Avg) or the extremes (Min, Max), cnt the row
// counts (Count, Avg), each nil where the function has no use for it.
type aggState struct {
	val []float64
	cnt []int64
}

// newAggState returns the state of f before any row, for the given number of
// groups: sums and counts zero, and the extremes at the far end of floatLess's
// order — NaN, which every number is below, and −Inf.
func newAggState(f AggFunc, groups int) aggState {
	var a aggState
	if f != Count {
		a.val = make([]float64, groups)
	}
	if f == Count || f == Avg {
		a.cnt = make([]int64, groups)
	}
	if f == Min || f == Max {
		init := math.NaN()
		if f == Max {
			init = math.Inf(-1)
		}
		for g := range a.val {
			a.val[g] = init
		}
	}
	return a
}

// fold folds item j — a row with its value and a count of one (cnt nil), or a
// group of a partial with its sum or extreme and its count — into group
// gid[j], in the order of j: one loop an array, nothing per group but the
// array element. A value becomes a float64 where it is folded, so that an
// integer input is read as it is stored: the same additions, in the same
// order, as over the input converted first.
func fold[V int32 | int64 | float64](a *aggState, f AggFunc, gid []int32, val []V, cnt []int64) {
	switch f {
	case Sum, Avg:
		if len(a.val) == 1 { // one group: the same additions in the same order, through a register
			sum := a.val[0]
			for _, v := range val {
				sum += float64(v)
			}
			a.val[0] = sum
		} else {
			for j, g := range gid {
				a.val[g] += float64(val[j])
			}
		}
	case Min:
		for j, g := range gid {
			if v := float64(val[j]); floatLess(v, a.val[g]) {
				a.val[g] = v
			}
		}
	case Max:
		for j, g := range gid {
			if v := float64(val[j]); floatLess(a.val[g], v) {
				a.val[g] = v
			}
		}
	}
	switch {
	case a.cnt == nil:
	case cnt == nil && len(a.cnt) == 1:
		a.cnt[0] += int64(len(gid))
	case cnt == nil:
		for _, g := range gid {
			a.cnt[g]++
		}
	default:
		for j, g := range gid {
			a.cnt[g] += cnt[j]
		}
	}
}

// result returns the aggregate of every group (each holds a row at least).
func (a *aggState) result(f AggFunc) []float64 {
	if f == Sum || f == Min || f == Max {
		return a.val
	}
	out := make([]float64, len(a.cnt))
	for g, n := range a.cnt {
		out[g] = float64(n)
		if f == Avg {
			out[g] = a.val[g] / float64(n)
		}
	}
	return out
}

// aggInput folds rows [lo, hi) of an aggregate's input into the states of
// their groups (gid).
type aggInput func(a *aggState, gid []int32, lo, hi int)

// numericInput is the aggInput of f over column c, read at the width it is
// stored at, or nil where c is not numeric.
func numericInput(f AggFunc, c *batchCol) aggInput {
	src, at := c.stored()
	if read, ok := column.Reader[int32](src, at); ok {
		return foldInput(f, read)
	}
	if read, ok := column.Reader[int64](src, at); ok {
		return foldInput(f, read)
	}
	if read, ok := column.Reader[float64](src, at); ok {
		return foldInput(f, read)
	}
	return nil
}

// foldInput is the aggInput of f over rows read through read into pooled
// scratch; Count reads none (read nil).
func foldInput[V int32 | int64 | float64](f AggFunc, read func(lo, hi int, scratch []V) []V) aggInput {
	return func(a *aggState, gid []int32, lo, hi int) {
		if read == nil {
			fold[V](a, f, gid, nil, nil)
			return
		}
		scratch := par.Get[V](hi - lo)
		fold(a, f, gid, read(lo, hi, scratch), nil)
		par.Put(scratch)
	}
}

// groupKeyReader reads a grouping column at the positions at (nil: row for
// row) as integers that are equal exactly where the values are: integer and
// date columns of any encoding through column.Reader, strings as their
// dictionary codes, floats as their bit patterns with the two zeros folded
// into one and all NaNs into another.
func groupKeyReader(c column.Column, at []int32) (keyReader, error) {
	if f, ok := c.(*column.Float64Column); ok {
		return func(lo, hi int, scratch []int64) []int64 {
			keys := column.Grown(scratch, hi-lo)
			for i := range keys {
				row := lo + i
				if at != nil {
					row = int(at[row])
				}
				switch v := f.Values[row]; {
				case v == 0:
					keys[i] = 0 // −0 groups with +0
				case v != v:
					keys[i] = int64(math.Float64bits(math.NaN()))
				default:
					keys[i] = int64(math.Float64bits(v))
				}
			}
			return keys
		}, nil
	}
	if read, ok := keysOf[int64](c, at); ok {
		return read, nil
	}
	return nil, fmt.Errorf("column %s has ungroupable type %T", c.Name(), c)
}
