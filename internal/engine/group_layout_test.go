package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// groupKey is one key column of a test relation: the column as GroupBy gets
// it, what the reference groups a row by, and how many slots a direct table
// over it alone would take (0: more than a test should allocate).
type groupKey struct {
	col    column.Column
	ident  func(row int) string
	domain int
}

// groupKeyColumn spells n random keys in one of the layouts and domains a
// group key comes in.
func groupKeyColumn(rng *rand.Rand, kind, name string, n int) groupKey {
	ints := make([]int64, n)
	intKey := func(col column.Column, domain int) groupKey {
		return groupKey{col, func(row int) string { return fmt.Sprint(ints[row]) }, domain}
	}
	d := 1 + rng.Intn(40)
	for i := range ints {
		ints[i] = int64(rng.Intn(d)) - int64(d/3)
	}
	switch kind {
	case "int":
		return intKey(column.NewInt64(name, ints), d)
	case "packed":
		return intKey(column.CompressInt64(column.NewInt64(name, ints)), d)
	case "runs": // long runs of equal keys, bit-packed
		for i := range ints {
			ints[i] = int64(i / (1 + n/(2*d)) % d)
		}
		return intKey(column.CompressInt64(column.NewInt64(name, ints)), d)
	case "date", "pdate":
		days := make([]int32, n)
		for i := range days {
			days[i] = int32(ints[i])
		}
		if kind == "date" {
			return intKey(column.NewDate(name, days), d)
		}
		return intKey(column.CompressDate(column.NewDate(name, days)), d)
	case "string":
		strs := make([]string, n)
		for i := range strs {
			strs[i] = fmt.Sprintf("w%03d", ints[i]+int64(d))
		}
		return groupKey{column.NewString(name, strs), func(row int) string { return strs[row] }, d}
	case "ends": // both ends of int64: the domain is wider than int64 counts
		ends := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
		for i := range ints {
			ints[i] = ends[rng.Intn(len(ends))]
		}
		return intKey(column.NewInt64(name, ints), 0)
	case "wide": // 2^30 wide: three of them multiply past 64 bits
		for i := range ints {
			ints[i] = int64(rng.Intn(5)) << 28
		}
		return intKey(column.NewInt64(name, ints), 0)
	default: // float: both zeros are one key, and so are all NaNs
		vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) | 1),
			1.5, -2.5, 1e300, math.Inf(1), math.Inf(-1), 5e-324}
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = vals[rng.Intn(len(vals))]
		}
		return groupKey{column.NewFloat64(name, floats), func(row int) string {
			if v := floats[row]; v != 0 && v == v {
				return fmt.Sprint(math.Float64bits(v))
			} else if v == 0 {
				return "zero"
			}
			return "nan"
		}, 0}
	}
}

// refGroup is one group of the reference: a map entry, folded a row at a time.
type refGroup struct {
	first         int32
	sum, min, max float64
	n             int64
}

func refLess(a, b float64) bool { return a < b || math.IsNaN(b) && !math.IsNaN(a) }

func (g *refGroup) merge(o *refGroup) {
	g.sum, g.n = g.sum+o.sum, g.n+o.n
	if refLess(o.min, g.min) {
		g.min = o.min
	}
	if refLess(g.max, o.max) {
		g.max = o.max
	}
}

// refGroupBy is the group-by the slot tables are held to: a map keyed by the
// tuple spelled out, one map a morsel, merged in morsel order — the order of
// the float additions is part of what GroupBy promises. It returns the first
// row of every group, in order of first occurrence, and sum, count, min, max
// and avg of vals by group.
func refGroupBy(keys []groupKey, vals []float64) (first []int32, aggs [5][]float64) {
	n := len(vals)
	all, order := map[string]*refGroup{}, []string(nil)
	for lo := 0; lo < n; lo += par.DefaultMorselRows {
		local, localOrder := map[string]*refGroup{}, []string(nil)
		for row := lo; row < min(n, lo+par.DefaultMorselRows); row++ {
			var id strings.Builder
			for _, k := range keys {
				id.WriteString(k.ident(row) + "|")
			}
			g, v := local[id.String()], vals[row]
			if g == nil {
				g = &refGroup{first: int32(row), min: v, max: v}
				local[id.String()], localOrder = g, append(localOrder, id.String())
			}
			g.merge(&refGroup{sum: v, min: v, max: v, n: 1})
		}
		for _, id := range localOrder {
			if g := all[id]; g != nil {
				g.merge(local[id])
			} else {
				all[id], order = local[id], append(order, id)
			}
		}
	}
	for _, id := range order {
		g := all[id]
		first = append(first, g.first)
		for i, v := range []float64{g.sum, float64(g.n), g.min, g.max, g.sum / float64(g.n)} {
			aggs[i] = append(aggs[i], v)
		}
	}
	return first, aggs
}

// TestGroupLayoutsAgree: over relations of one to three key columns of every
// layout and domain — and of none, and of no rows — the direct and the hashed
// slot table, each forced where it can exist, and the one the rule picks
// produce the reference's groups in the reference's order with the
// reference's float bits, for all five aggregates at every worker count.
func TestGroupLayoutsAgree(t *testing.T) {
	kinds := []string{"int", "packed", "runs", "date", "pdate", "string", "ends", "wide", "float"}
	relations := [][]string{{}, {"wide", "wide", "wide"}, {"float", "int"}, {"int", "float", "ends"}, {"ends"}, {"float"}}
	rng := rand.New(rand.NewSource(21))
	for len(relations) < 40 {
		rel := make([]string, 1+rng.Intn(3))
		for i := range rel {
			rel[i] = kinds[rng.Intn(len(kinds))]
		}
		relations = append(relations, rel)
	}
	sizes := []int{0, 1, 700, par.DefaultMorselRows + 1, 2*par.DefaultMorselRows + 77}
	specs := []AggSpec{{Sum, "v", "sum"}, {Count, "", "count"}, {Min, "v", "min"}, {Max, "v", "max"}, {Avg, "v", "avg"}}
	for ri, rel := range relations {
		n := sizes[ri%len(sizes)]
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = []float64{1, 0.1, -7.25, 1e17, math.Copysign(0, -1), math.NaN(), math.Inf(1)}[rng.Intn(5+2*(ri%2))] // NaNs and infinities in every other relation
		}
		keys, names, cols, slots := make([]groupKey, len(rel)), make([]string, len(rel)), []column.Column{column.NewFloat64("v", vals)}, 1
		for i, kind := range rel {
			names[i] = fmt.Sprintf("k%d", i)
			keys[i] = groupKeyColumn(rng, kind, names[i], n)
			cols, slots = append(cols, keys[i].col), min(slots*keys[i].domain, 1<<20)
		}
		first, want := refGroupBy(keys, vals)
		if n == 0 && len(rel) == 0 {
			want = [5][]float64{{0}, {0}, {0}, {0}, {0}} // SQL's one row over no rows
		}
		in := MustNewBatch(cols...)
		for _, layout := range []joinLayout{layoutAuto, layoutHash, layoutDirect} {
			if layout == layoutDirect && (slots == 0 || slots == 1<<20) {
				continue
			}
			for _, w := range workerCounts() {
				label := fmt.Sprintf("relation %d %v, %d rows, layout %d, workers %d", ri, rel, n, layout, w)
				got, err := groupBy(ctxFor(w), in, names, specs, layout)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.NumRows() != len(want[0]) || got.NumColumns() != len(rel)+len(specs) {
					t.Fatalf("%s: %d groups of %d columns, want %d of %d", label, got.NumRows(), got.NumColumns(), len(want[0]), len(rel)+len(specs))
				}
				for i, k := range keys {
					if !sameColumn(got.Columns()[i], k.col.Gather(first)) {
						t.Fatalf("%s: key column %d is not the reference's first rows %v", label, i, first)
					}
				}
				for i, s := range specs {
					if c := got.Columns()[len(rel)+i]; !sameColumn(c, column.NewFloat64(s.As, want[i])) {
						t.Fatalf("%s: %s = %v, want %v", label, s.As, c.(*column.Float64Column).Values, want[i])
					}
				}
			}
		}
	}
}

// TestGroupByRefusesUnaddressableRows: row numbers are int32 positions, as a
// join's are, and a longer input is refused before anything is read.
func TestGroupByRefusesUnaddressableRows(t *testing.T) {
	huge, err := newBatch(math.MaxInt32+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GroupBy(nil, huge, nil, []AggSpec{{Func: Count, As: "n"}}); err == nil || !strings.Contains(err.Error(), "group by") {
		t.Fatalf("2^31 rows: error %v, want one naming the group by", err)
	}
}

// TestFloatOrderIsTotal: MIN, MAX and ORDER BY follow one order in which every
// NaN comes after every number, wherever the NaN stands — first, last, or at
// the head of a later morsel.
func TestFloatOrderIsTotal(t *testing.T) {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	set := []float64{nan, negZero, 1, inf}
	specs := []AggSpec{{Min, "v", "min"}, {Max, "v", "max"}}
	bits := func(vs ...float64) (out []uint64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	extremes := func(label string, ctx *Ctx, vals []float64, wantMin, wantMax float64) {
		t.Helper()
		out, err := GroupBy(ctx, MustNewBatch(column.NewFloat64("v", vals)), nil, specs)
		if err != nil {
			t.Fatal(err)
		}
		mn, mx := out.MustColumn("min").(*column.Float64Column).Values[0], out.MustColumn("max").(*column.Float64Column).Values[0]
		if fmt.Sprint(bits(mn, mx)) != fmt.Sprint(bits(wantMin, wantMax)) {
			t.Errorf("%s: min %v max %v, want %v and %v", label, mn, mx, wantMin, wantMax)
		}
	}
	var perm func(k int)
	perm = func(k int) {
		if k < len(set) {
			for i := k; i < len(set); i++ {
				set[k], set[i] = set[i], set[k]
				perm(k + 1)
				set[k], set[i] = set[i], set[k]
			}
			return
		}
		// The four values alone, and each at the head of a morsel of ones.
		spread := make([]float64, 3*par.DefaultMorselRows+1)
		for i := range spread {
			spread[i] = 1
		}
		for i, v := range set {
			spread[i*par.DefaultMorselRows] = v
		}
		for _, w := range []int{1, 2, 7} {
			extremes(fmt.Sprintf("%v, workers %d", set, w), ctxFor(w), set, negZero, nan)
			extremes(fmt.Sprintf("%v a morsel apart, workers %d", set, w), ctxFor(w), spread, negZero, nan)
		}
		for _, desc := range []bool{false, true} {
			sorted, err := OrderBy(MustNewBatch(column.NewFloat64("v", append([]float64(nil), set...))), SortKey{Col: "v", Desc: desc})
			if err != nil {
				t.Fatal(err)
			}
			want := bits(negZero, 1, inf, nan)
			if desc {
				want = bits(nan, inf, 1, negZero)
			}
			if got := bits(sorted.MustColumn("v").(*column.Float64Column).Values...); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("order by %v desc=%v: %x, want %x", set, desc, got, want)
			}
		}
	}
	perm(0)
	extremes("only NaNs", nil, []float64{nan, nan}, nan, nan)
}

// TestGroupBySkewBoundedSlowdown is TestJoinSkewBoundedSlowdown's twin: keys
// Zipf-distributed over a dense and over a wide domain — the direct and the
// hashed table, a few groups taking most rows — group to the same bits at
// every worker count, and cost no more than a small multiple of uniform keys:
// neither table has a per-key structure a hot key could grow, only an
// accumulator the hot group's additions queue on.
func TestGroupBySkewBoundedSlowdown(t *testing.T) {
	const nk, n = 4096, 40 * par.DefaultMorselRows
	rng := rand.New(rand.NewSource(6))
	zipf := rand.NewZipf(rng, 1.2, 1, nk-1)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	specs := []AggSpec{{Sum, "v", "s"}, {Count, "", "n"}, {Max, "v", "m"}}
	for _, stride := range []int64{1, 1 << 40} { // dense: direct; wide: hashed
		uniform, skewed := make([]int64, n), make([]int64, n)
		for i := range uniform {
			uniform[i], skewed[i] = int64(rng.Intn(nk))*stride, int64(zipf.Uint64())*stride
		}
		fastest := func(keys []int64) time.Duration {
			in := MustNewBatch(column.NewInt64("k", keys), column.NewFloat64("v", vals))
			want, err := GroupBy(nil, in, []string{"k"}, specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				got, err := GroupBy(ctxFor(w), in, []string{"k"}, specs)
				if err != nil {
					t.Fatal(err)
				}
				assertBatchEqual(t, fmt.Sprintf("stride %d workers %d", stride, w), got, want)
			}
			best := time.Duration(math.MaxInt64)
			for rep := 0; rep < 7 && !raceBuild && !testing.Short(); rep++ {
				t0 := time.Now()
				if _, err := GroupBy(nil, in, []string{"k"}, specs); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(t0))
			}
			return best
		}
		u, z := fastest(uniform), fastest(skewed)
		if raceBuild || testing.Short() {
			continue // the timing comparison is for an undisturbed build
		}
		t.Logf("stride %d: uniform %v, zipf %v", stride, u, z)
		if z > 3*u {
			t.Errorf("stride %d: Zipf-skewed keys %v, uniform %v: more than 3× slower", stride, z, u)
		}
	}
}
