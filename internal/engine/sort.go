package engine

import (
	"fmt"
	"sort"

	"robustdb/internal/column"
)

// SortKey describes one ORDER BY term.
type SortKey struct {
	Col  string
	Desc bool
}

// OrderBy returns the batch's rows reordered by the sort keys. The sort is
// stable, so equal keys preserve input order (deterministic results).
func OrderBy(b *Batch, keys ...SortKey) (*Batch, error) {
	perm, err := sortPermutation(b, keys)
	if err != nil {
		return nil, err
	}
	return b.Gather(perm), nil
}

// TopN returns the first n rows of the batch ordered by the sort keys.
// If the batch has fewer than n rows, all rows are returned.
func TopN(b *Batch, n int, keys ...SortKey) (*Batch, error) {
	perm, err := sortPermutation(b, keys)
	if err != nil {
		return nil, err
	}
	return b.Gather(perm.Slice(0, min(n, perm.Len()))), nil
}

func sortPermutation(b *Batch, keys []SortKey) (column.PosList, error) {
	cmps := make([]func(i, j int32) int, len(keys))
	for k, key := range keys {
		c, err := b.Column(key.Col)
		if err != nil {
			return column.PosList{}, fmt.Errorf("order by: %w", err)
		}
		cmp, err := comparator(c)
		if err != nil {
			return column.PosList{}, fmt.Errorf("order by: %w", err)
		}
		if key.Desc {
			inner := cmp
			cmp = func(i, j int32) int { return -inner(i, j) }
		}
		cmps[k] = cmp
	}
	perm := column.All(b.NumRows()).Explicit()
	sort.SliceStable(perm, func(x, y int) bool {
		for _, cmp := range cmps {
			if d := cmp(perm[x], perm[y]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return column.Positions(perm), nil
}

// comparator returns a three-way row comparison for the column. Strings
// compare through the order-preserving dictionary codes.
func comparator(c column.Column) (func(i, j int32) int, error) {
	switch c := c.(type) {
	case *column.Int64Column:
		return func(i, j int32) int { return cmp64(c.Values[i], c.Values[j]) }, nil
	case *column.DateColumn:
		return func(i, j int32) int { return cmp64(int64(c.Values[i]), int64(c.Values[j])) }, nil
	case *column.StringColumn:
		return func(i, j int32) int { return cmp64(int64(c.Codes[i]), int64(c.Codes[j])) }, nil
	case *column.Float64Column:
		return func(i, j int32) int { return cmpFloat(c.Values[i], c.Values[j]) }, nil
	case *column.CompressedInt64Column:
		return func(i, j int32) int { return cmp64(c.Value(int(i)), c.Value(int(j))) }, nil
	case *column.CompressedDateColumn:
		return func(i, j int32) int { return cmp64(int64(c.Value(int(i))), int64(c.Value(int(j)))) }, nil
	default:
		return nil, fmt.Errorf("column %s has unsortable type %T", c.Name(), c)
	}
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// floatLess is the engine's one order of floats, and total: numbers by value,
// the two zeros equal, every NaN equal to every other and after every number
// — the order group keys follow (groupKeyReader) and PostgreSQL's. ORDER BY
// sorts by it and MIN and MAX fold by it, so MAX is NaN where any input is
// and MIN where all are, in whatever order the rows come.
func floatLess(a, b float64) bool { return a < b || a == a && b != b }

// cmpFloat is floatLess as the three-way comparison a sort key wants.
func cmpFloat(a, b float64) int {
	switch {
	case floatLess(a, b):
		return -1
	case floatLess(b, a):
		return 1
	}
	return 0
}
