package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

func TestAggFuncString(t *testing.T) {
	want := map[AggFunc]string{Sum: "sum", Count: "count", Min: "min", Max: "max", Avg: "avg"}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), s)
		}
	}
	if AggFunc(42).String() != "agg(42)" {
		t.Error("unknown agg rendering wrong")
	}
}

func TestGroupByBasic(t *testing.T) {
	b := MustNewBatch(
		column.NewString("city", []string{"a", "b", "a", "b", "a"}),
		column.NewInt64("qty", []int64{1, 2, 3, 4, 5}),
		column.NewFloat64("price", []float64{10, 20, 30, 40, 50}),
	)
	out, err := GroupBy(nil, b, []string{"city"}, []AggSpec{
		{Func: Sum, Col: "qty", As: "sum_qty"},
		{Func: Count, As: "n"},
		{Func: Min, Col: "price", As: "min_p"},
		{Func: Max, Col: "price", As: "max_p"},
		{Func: Avg, Col: "price", As: "avg_p"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	city := out.MustColumn("city").(*column.StringColumn)
	// First-occurrence order: a, then b.
	if city.Value(0) != "a" || city.Value(1) != "b" {
		t.Fatalf("group order: %q %q", city.Value(0), city.Value(1))
	}
	sum := out.MustColumn("sum_qty").(*column.Float64Column).Values
	if sum[0] != 9 || sum[1] != 6 {
		t.Fatalf("sums = %v", sum)
	}
	n := out.MustColumn("n").(*column.Float64Column).Values
	if n[0] != 3 || n[1] != 2 {
		t.Fatalf("counts = %v", n)
	}
	minP := out.MustColumn("min_p").(*column.Float64Column).Values
	maxP := out.MustColumn("max_p").(*column.Float64Column).Values
	avgP := out.MustColumn("avg_p").(*column.Float64Column).Values
	if minP[0] != 10 || maxP[0] != 50 || avgP[0] != 30 {
		t.Fatalf("a aggregates: %v %v %v", minP[0], maxP[0], avgP[0])
	}
	if minP[1] != 20 || maxP[1] != 40 || avgP[1] != 30 {
		t.Fatalf("b aggregates: %v %v %v", minP[1], maxP[1], avgP[1])
	}
}

func TestGroupByMultiKey(t *testing.T) {
	b := MustNewBatch(
		column.NewInt64("y", []int64{1992, 1992, 1993, 1993}),
		column.NewString("c", []string{"x", "y", "x", "x"}),
		column.NewInt64("v", []int64{1, 2, 3, 4}),
	)
	out, err := GroupBy(nil, b, []string{"y", "c"}, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	s := out.MustColumn("s").(*column.Float64Column).Values
	if s[0] != 1 || s[1] != 2 || s[2] != 7 {
		t.Fatalf("sums = %v", s)
	}
}

func TestGroupByGlobalAggregate(t *testing.T) {
	b := MustNewBatch(column.NewInt64("v", []int64{1, 2, 3}))
	out, err := GroupBy(nil, b, nil, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.MustColumn("s").(*column.Float64Column).Values[0] != 6 {
		t.Fatal("global aggregate wrong")
	}
	// Global aggregate over empty input yields one row of zero.
	empty := MustNewBatch(column.NewInt64("v", nil))
	out, err = GroupBy(nil, empty, nil, []AggSpec{
		{Func: Sum, Col: "v", As: "s"},
		{Func: Count, As: "n"},
		{Func: Avg, Col: "v", As: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatal("empty global aggregate should have one row")
	}
	if v := out.MustColumn("s").(*column.Float64Column).Values[0]; v != 0 {
		t.Fatalf("empty sum = %v", v)
	}
	if v := out.MustColumn("a").(*column.Float64Column).Values[0]; v != 0 {
		t.Fatalf("empty avg = %v", v)
	}
}

func TestGroupByKeyedEmptyInput(t *testing.T) {
	empty := MustNewBatch(
		column.NewInt64("k", nil),
		column.NewInt64("v", nil),
	)
	out, err := GroupBy(nil, empty, []string{"k"}, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("keyed grouping of empty input should be empty, got %d rows", out.NumRows())
	}
}

func TestGroupByDateKeyAndValue(t *testing.T) {
	b := MustNewBatch(
		column.NewDate("d", []int32{10, 10, 20}),
		column.NewDate("v", []int32{1, 2, 3}),
	)
	out, err := GroupBy(nil, b, []string{"d"}, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	s := out.MustColumn("s").(*column.Float64Column).Values
	if out.NumRows() != 2 || s[0] != 3 || s[1] != 3 {
		t.Fatalf("date grouping wrong: %v", s)
	}
}

// Float keys group by value: values a fixed-point key would merge (below its
// resolution, beyond its range) stay apart, the two zeros are one group and
// so are all NaNs.
func TestGroupByFloatKey(t *testing.T) {
	nan1, nan2 := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())|1)
	keys := []float64{1.5, 1.5, 2.5, 1e-7, 2e-7, 1e13, 2e13, math.Copysign(0, -1), 0, nan1, nan2, 1e-7}
	want := []float64{2, 1, 2, 1, 1, 1, 2, 2} // 1.5, 2.5, 1e-7, 2e-7, 1e13, 2e13, 0, NaN
	out, err := GroupBy(nil, MustNewBatch(column.NewFloat64("f", keys)), []string{"f"}, []AggSpec{{Func: Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.MustColumn("n").(*column.Float64Column).Values; !slices.Equal(got, want) {
		t.Fatalf("float grouping: group sizes %v over keys %v, want %v",
			got, out.MustColumn("f").(*column.Float64Column).Values, want)
	}
}

func TestGroupByErrors(t *testing.T) {
	b := MustNewBatch(
		column.NewInt64("k", []int64{1}),
		column.NewString("s", []string{"x"}),
	)
	if _, err := GroupBy(nil, b, []string{"zz"}, nil); err == nil {
		t.Fatal("expected missing key error")
	}
	if _, err := GroupBy(nil, b, []string{"k"}, []AggSpec{{Func: Sum, Col: "zz", As: "s2"}}); err == nil {
		t.Fatal("expected missing aggregate column error")
	}
	if _, err := GroupBy(nil, b, []string{"k"}, []AggSpec{{Func: Sum, Col: "s", As: "s2"}}); err == nil {
		t.Fatal("expected non-numeric aggregate error")
	}
	if _, err := GroupBy(nil, b, []string{"k"}, []AggSpec{{Func: AggFunc(42), Col: "k", As: "x"}}); err == nil {
		t.Fatal("expected unknown aggregate error")
	}
}

// Property: GroupBy(nil, Sum) equals a reference map-based aggregation.
func TestGroupBySumMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(10)
			vals[i] = rng.Int63n(100)
		}
		b := MustNewBatch(column.NewInt64("k", keys), column.NewInt64("v", vals))
		out, err := GroupBy(nil, b, []string{"k"}, []AggSpec{{Func: Sum, Col: "v", As: "s"}})
		if err != nil {
			return false
		}
		want := make(map[int64]float64)
		for i := range keys {
			want[keys[i]] += float64(vals[i])
		}
		if out.NumRows() != len(want) {
			return false
		}
		ks := out.MustColumn("k").(*column.Int64Column).Values
		ss := out.MustColumn("s").(*column.Float64Column).Values
		for i := range ks {
			if math.Abs(want[ks[i]]-ss[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// GroupBy allocates per morsel, never per row and never per group: a
// partial is a handful of flat arrays, however many groups they hold.
func TestGroupByAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	for _, groups := range []int{64, 4096} {
		for _, n := range []int{par.DefaultMorselRows, 8 * par.DefaultMorselRows} {
			keys := make([]int64, n)
			vals := make([]int64, n)
			for i := range keys {
				keys[i] = int64(i % groups)
				vals[i] = int64(i)
			}
			b := MustNewBatch(column.NewInt64("k", keys), column.NewInt64("v", vals))
			aggs := []AggSpec{{Func: Sum, Col: "v", As: "s"}, {Func: Count, Col: "v", As: "c"}}
			a := testing.AllocsPerRun(10, func() {
				if _, err := GroupBy(nil, b, []string{"k"}, aggs); err != nil {
					t.Fatal(err)
				}
			})
			// The slots, the first rows (grown by doubling), the stored tuples,
			// an array or two an aggregate, and the per-call fixtures. The
			// string-keyed map made 366 at 64 groups and five more a group.
			if perMorsel := a / float64(par.Morsels(n)); perMorsel > 128 {
				t.Errorf("%d rows, %d groups: %.0f allocations per morsel, want ≤ 128", n, groups, perMorsel)
			} else {
				t.Logf("%d rows, %d groups: %.0f allocations per morsel", n, groups, perMorsel)
			}
		}
	}
}
