package engine

import (
	"math/rand"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// filterBatch extends randomBatch (plain int64, float, date and dictionary
// string columns) to every storage encoding a predicate can meet: the two
// bit-packed types over the same keys and dates, and a bit-packed column of
// runs that straddle morsels.
func filterBatch(t *testing.T, seed int64, n int) *Batch {
	t.Helper()
	b := randomBatch(t, seed, n)
	grps := make([]int64, n)
	for i := range grps {
		grps[i] = int64((i / 1000) % 13)
	}
	return MustNewBatch(append(b.Columns(),
		column.CompressInt64(column.NewInt64("ck", b.MustColumn("k").(*column.Int64Column).Values)),
		column.CompressDate(column.NewDate("cd", b.MustColumn("d").(*column.DateColumn).Values)),
		column.CompressInt64(column.NewInt64("grp", grps)))...)
}

// TestFilterRangePartitions states once the property the morsel scheduler,
// the pipelined chunk executor and vecengine each rely on: FilterRange over
// the pieces of any partition of [0, n), one after the other, is Filter over
// the whole — for every predicate kind, every encoding and every worker
// count, whether a piece is smaller than a block, one morsel or several.
func TestFilterRangePartitions(t *testing.T) {
	const m = par.DefaultMorselRows
	n := 5*m + 321
	b := filterBatch(t, 21, n)
	preds := []expr.Predicate{
		expr.NewCmp("k", expr.LT, int64(125)),
		expr.NewCmp("ck", expr.NE, int64(7)),
		expr.NewCmp("v", expr.GE, -50.0),
		expr.NewCmp("d", expr.GT, int32(20200901)),
		expr.NewCmp("cd", expr.LE, int32(20200301)),
		expr.NewCmp("city", expr.EQ, "caen"),
		expr.NewCmp("city", expr.GT, "c"),
		expr.NewCmp("grp", expr.EQ, int64(4)),
		expr.NewCmp("k", expr.GE, int64(0)), // keeps everything: the range arm
		expr.NewCmp("ck", expr.LT, int64(0)),
		expr.NewBetween("ck", int64(100), int64(350)),
		expr.NewBetween("v", -1.0, 1.0),
		expr.NewBetween("city", "b", "d"),
		expr.NewBetween("grp", int64(3), int64(9)),
		expr.NewIn("ck", int64(1), int64(2), int64(400)),
		expr.NewIn("city", "ada", "essen", "nowhere"),
		expr.NewOr(expr.NewCmp("k", expr.LT, int64(10)), expr.NewCmp("v", expr.GT, 90.0)),
		expr.NewCmpCols("k", expr.LT, "v"),
		expr.NewCmpCols("cd", expr.EQ, "d"),
		expr.NewAnd(expr.NewBetween("cd", int32(20200201), int32(20200801)), expr.NewCmp("grp", expr.NE, int64(4)),
			expr.NewOr(expr.NewCmp("city", expr.LE, "bern"), expr.NewCmp("ck", expr.GT, int64(450)))),
	}
	partitions := map[string][]int{
		"whole":             {0, n},
		"inside one block":  {0, 70, 71, 71, 100, n},
		"unaligned thirds":  {0, n/3 + 5, 2*n/3 - 9, n},
		"one morsel each":   {0, m, 2 * m, 3 * m, 4 * m, 5 * m, n},
		"pipeline chunks":   {0, 10007, 20014, 30021, n},
		"morsel and a half": {0, 1, m + m/2 + 1, 3*m + 2, n},
	}
	for _, pred := range preds {
		want, err := Filter(nil, b, pred)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		for label, cuts := range partitions {
			for _, ctx := range []*Ctx{nil, ctxFor(2), ctxFor(7)} {
				parts := make([]column.PosList, len(cuts)-1)
				for i := range parts {
					if parts[i], err = FilterRange(ctx, b, pred, cuts[i], cuts[i+1]); err != nil {
						t.Fatalf("%s over [%d,%d): %v", pred, cuts[i], cuts[i+1], err)
					}
				}
				if got := column.Concat(parts); !samePos(got, want) {
					t.Fatalf("%s, %s, workers=%d: pieces select %d rows, the whole %d (or contents differ)",
						pred, label, ctx.Workers(), got.Len(), want.Len())
				}
			}
		}
	}
	for _, r := range [][2]int{{-1, 5}, {5, 4}, {0, n + 1}} {
		if _, err := FilterRange(nil, b, preds[0], r[0], r[1]); err == nil {
			t.Errorf("FilterRange over [%d,%d) of %d rows did not fail", r[0], r[1], n)
		}
	}
}

// TestFilterAllocations pins what a parallel filter may allocate, which —
// unlike its wall time — repeats exactly: per morsel one position list a
// conjunct, the copy of what qualified that each keeps of its pooled scratch
// (a later conjunct writes a list of its own rather than compact its
// predecessor's, which the predecessor may share), none for an intersection,
// and nothing to hand the morsel its rows — no view column, no batch, no
// resolver. A conjunct that keeps every row of a morsel returns the range it
// was handed and keeps no list at all, so a conjunction of such conjuncts
// allocates nothing per morsel and stitches back into one range.
func TestFilterAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 1 << 20
	rng := rand.New(rand.NewSource(23))
	keys := make([]int64, n)
	dates := make([]int32, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
		dates[i] = int32(rng.Intn(1000))
	}
	plain := MustNewBatch(column.NewInt64("k", keys), column.NewDate("d", dates))
	packed := MustNewBatch(column.Compress(plain.MustColumn("k")), column.Compress(plain.MustColumn("d")))
	selective := expr.NewAnd(expr.NewBetween("k", int64(10), int64(29)), expr.NewCmp("d", expr.LT, int32(200)))
	keepsAll := expr.NewAnd(expr.NewBetween("k", int64(0), int64(99)), expr.NewCmp("d", expr.LT, int32(1000)), expr.NewCmp("k", expr.NE, int64(-1)))
	ctx := ctxFor(2)
	const fixed = 16 // the morsel fan-out, the part list, the concatenation
	for label, b := range map[string]*Batch{"plain": plain, "bit-packed": packed} {
		var pos column.PosList
		a := testing.AllocsPerRun(5, func() { pos, _ = Filter(ctx, b, selective) })
		if limit := float64(2*par.Morsels(n) + fixed); a > limit {
			t.Errorf("%s: %v allocations for %d morsels, want ≤ %v", label, a, par.Morsels(n), limit)
		}
		if pos.Len() == 0 || pos.Len() > n/20 {
			t.Errorf("%s: selected %d of %d rows, expected about 4 %%", label, pos.Len(), n)
		}
		t.Logf("%s: %v allocations for %d morsels", label, a, par.Morsels(n))

		a = testing.AllocsPerRun(5, func() { pos, _ = Filter(ctx, b, keepsAll) })
		if lo, hi, isRange := pos.AsRange(); !isRange || lo != 0 || hi != n {
			t.Errorf("%s: a conjunction that keeps every row returned [%d, %d), range %v", label, lo, hi, isRange)
		}
		if a > fixed {
			t.Errorf("%s: %v allocations for a conjunction that keeps every row, want ≤ %d", label, a, fixed)
		}
		if got := b.GatherCtx(ctx, pos).MustColumn("k"); label == "plain" && &got.(*column.Int64Column).Values[0] != &keys[0] {
			t.Errorf("%s: gathering through the kept-everything selection copied the column", label)
		}
	}
}
