package engine

// Worker-count invariance of the compressed execution paths: every kernel
// that scans, joins, or aggregates encoded columns in place must produce
// results bit-identical to the decompress-first reference at every pool
// size — the compressed fast paths are an optimization, never a semantic
// fork. Values are integer and bounded so the sum fold is exact and the
// comparison is equality, not tolerance.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

// compressedPair builds a compressed batch and its decompress-first twin
// from one seeded value set: a bit-packed key, a bit-packed grouping column
// of long runs (blocks a scan decides on their header), a bit-packed date,
// and a dictionary string column.
func compressedPair(t *testing.T, seed int64, n int) (comp, plain *Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	grps := make([]int64, n)
	dates := make([]int32, n)
	cities := make([]string, n)
	names := []string{"ada", "bern", "caen", "dijon", "essen"}
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
		grps[i] = int64((i >> 6) % 13) // 64-long runs: constant blocks
		dates[i] = int32(20200101 + rng.Intn(365))
		cities[i] = names[rng.Intn(len(names))]
	}
	comp, err := NewBatch(
		column.CompressInt64(column.NewInt64("ck", keys)),
		column.CompressInt64(column.NewInt64("grp", grps)),
		column.CompressDate(column.NewDate("d", dates)),
		column.NewString("city", cities),
	)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = NewBatch(
		column.NewInt64("ck", keys),
		column.NewInt64("grp", grps),
		column.NewDate("d", dates),
		column.NewString("city", cities),
	)
	if err != nil {
		t.Fatal(err)
	}
	return comp, plain
}

// assertMaterializedEqual compares batches value-by-value after flattening:
// the compressed path may return encoded columns where the reference returns
// plain ones, but the decoded contents must match exactly.
func assertMaterializedEqual(t *testing.T, label string, got, want *Batch) {
	t.Helper()
	if !reflect.DeepEqual(got.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("%s: columns %v, want %v", label, got.ColumnNames(), want.ColumnNames())
	}
	for _, name := range want.ColumnNames() {
		g := column.Materialized(got.MustColumn(name))
		w := column.Materialized(want.MustColumn(name))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: column %s differs from decompress-first reference", label, name)
		}
	}
}

// TestCompressedFilterWorkerInvariance: code-domain scans over bit-packed
// integer and date columns select exactly the rows the value-domain
// reference selects, at every worker count.
func TestCompressedFilterWorkerInvariance(t *testing.T) {
	n := 3*par.DefaultMorselRows + 123
	comp, plain := compressedPair(t, 11, n)
	pred := expr.NewAnd(
		expr.NewBetween("ck", int64(100), int64(350)),
		expr.NewCmp("grp", expr.NE, int64(4)),
		expr.NewCmp("d", expr.LT, int32(20200901)),
	)
	want, err := Filter(nil, plain, pred)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("reference filter selected nothing; predicate too tight to test anything")
	}
	for _, w := range workerCounts() {
		got, err := Filter(ctxFor(w), comp, pred)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !samePos(got, want) {
			t.Fatalf("workers=%d: compressed scan selected %d positions, reference %d (or contents differ)",
				w, got.Len(), want.Len())
		}
	}
}

// TestCompressedSelectWorkerInvariance: Select over the compressed batch
// returns the same values as the decompress-first reference at every worker
// count, and the gathered columns keep their stored encoding (late
// materialization — the gather must not flatten).
func TestCompressedSelectWorkerInvariance(t *testing.T) {
	n := 2*par.DefaultMorselRows + 777
	comp, plain := compressedPair(t, 12, n)
	pred := expr.NewCmp("ck", expr.LT, int64(250))
	want, err := Select(nil, plain, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := Select(ctxFor(w), comp, pred)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertMaterializedEqual(t, fmt.Sprintf("select workers=%d", w), got, want)
		for name, enc := range map[string]string{"ck": "bitpack", "grp": "bitpack", "d": "bitpack", "city": "dict"} {
			if e := column.Encoding(got.MustColumn(name)); e != enc {
				t.Fatalf("workers=%d: select materialized %s to %q, want stored encoding %q", w, name, e, enc)
			}
		}
	}
}

// TestCompressedGroupByWorkerInvariance: a group-by reading bit-packed keys
// and inputs a block at a time, and its parallel merge,
// produce exactly the reference groups and integer sums at every worker
// count.
func TestCompressedGroupByWorkerInvariance(t *testing.T) {
	n := 4*par.DefaultMorselRows + 55
	comp, plain := compressedPair(t, 13, n)
	keys := []string{"grp"}
	aggs := []AggSpec{
		{Func: Sum, Col: "ck", As: "sum_ck"},
		{Func: Min, Col: "ck", As: "min_ck"},
		{Func: Max, Col: "d", As: "max_d"},
		{Func: Count, As: "n"},
	}
	want, err := GroupBy(nil, plain, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := GroupBy(ctxFor(w), comp, keys, aggs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertMaterializedEqual(t, fmt.Sprintf("groupby workers=%d", w), got, want)
	}
}

// TestCompressedHashJoinWorkerInvariance: the dictionary-bridge probe (build
// and probe sides dict-encoded with different dictionaries) matches the
// value-domain nested-loop reference at every worker count.
func TestCompressedHashJoinWorkerInvariance(t *testing.T) {
	nb := par.DefaultMorselRows/2 + 100
	np := 2*par.DefaultMorselRows + 333
	rng := rand.New(rand.NewSource(14))
	dim := make([]string, nb)
	for i := range dim {
		dim[i] = fmt.Sprintf("key-%03d", i%97)
	}
	fact := make([]string, np)
	for i := range fact {
		// A different value universe (some keys missing, a different
		// first-appearance order) forces distinct dictionaries, so the
		// probe must go through the code bridge, not shared codes.
		fact[i] = fmt.Sprintf("key-%03d", 96-rng.Intn(90))
	}
	build := MustNewBatch(column.NewString("dk", dim))
	probe := MustNewBatch(column.NewString("fk", fact))
	want, err := NestedLoopJoin(build, "dk", probe, "fk")
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() == 0 {
		t.Fatal("reference join produced no pairs; nothing to test")
	}
	for _, w := range workerCounts() {
		got, err := HashJoin(ctxFor(w), build, "dk", probe, "fk")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !sameJoin(got, want) {
			t.Fatalf("workers=%d: bridge join %d pairs, reference %d (or pair order differs)",
				w, got.NumRows(), want.NumRows())
		}
	}
}

// TestCompressedErrorDeterminism: a predicate that cannot apply to an
// encoded column surfaces the identical error at every worker count — the
// compressed path must not turn a type error into a scheduling-dependent
// one.
func TestCompressedErrorDeterminism(t *testing.T) {
	n := 2 * par.DefaultMorselRows
	comp, plain := compressedPair(t, 15, n)
	pred := expr.NewCmp("ck", expr.EQ, "not-an-integer")
	_, wantErr := Filter(nil, plain, pred)
	if wantErr == nil {
		t.Fatal("expected a type-mismatch error from the reference")
	}
	for _, w := range workerCounts() {
		_, err := Filter(ctxFor(w), comp, pred)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error %v, want %v", w, err, wantErr)
		}
	}
}

// gatherLists are position lists over n rows of each shape Gather treats
// differently: a 10 % ascending selection, a contiguous range starting on a
// packing-block boundary (shared blocks, cut final block), one starting
// inside a block (re-packed), and an unsorted list with repeats.
func gatherLists(n int) map[string][]int32 {
	rng := rand.New(rand.NewSource(16))
	lists := map[string][]int32{}
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			lists["selective"] = append(lists["selective"], int32(i))
		}
		if i >= 128 && i < n-77 {
			lists["contiguous-aligned"] = append(lists["contiguous-aligned"], int32(i))
		}
		if i >= 131 && i < n-5 {
			lists["contiguous-unaligned"] = append(lists["contiguous-unaligned"], int32(i))
		}
		lists["repeated"] = append(lists["repeated"], int32(rng.Intn(n)), int32(rng.Intn(n/100+1)))
	}
	return lists
}

// TestCompressedGatherWorkerInvariance: a gather through any kind of list
// builds the identical column — block for block, and therefore in Bytes(),
// the number the heap and bus models charge — at every worker count, and
// that column holds the values and the bytes of the plain re-encoding.
func TestCompressedGatherWorkerInvariance(t *testing.T) {
	n := 5*par.DefaultMorselRows + 321
	comp, plain := compressedPair(t, 16, n)
	for label, list := range gatherLists(n) {
		// Held explicitly, and as a selection that kept these rows would hand
		// them on: a range when the list is a run.
		arms := []column.PosList{column.Positions(list)}
		if label != "repeated" {
			arms = append(arms, column.Ascending(list))
		}
		for _, name := range []string{"ck", "d", "grp"} {
			for _, pos := range arms {
				src := comp.MustColumn(name)
				serial := Gather(nil, src, pos)
				want := plain.MustColumn(name).Gather(list)
				if !reflect.DeepEqual(column.Materialized(serial), want) {
					t.Fatalf("%s/%s: gathered values differ from the plain gather", label, name)
				}
				if re := column.Compress(want); name != "grp" && serial.Bytes() != re.Bytes() {
					t.Fatalf("%s/%s: Bytes() = %d, re-encoded values weigh %d", label, name, serial.Bytes(), re.Bytes())
				}
				if column.Encoding(serial) != column.Encoding(src) {
					t.Fatalf("%s/%s: gather changed the encoding to %s", label, name, column.Encoding(serial))
				}
				for _, w := range workerCounts() {
					if got := Gather(ctxFor(w), src, pos); !reflect.DeepEqual(got, serial) {
						t.Fatalf("%s/%s workers=%d: column differs from the serial gather (Bytes %d vs %d)",
							label, name, w, got.Bytes(), serial.Bytes())
					}
				}
			}
		}
	}
}

// TestGatherAllocations pins what materialization may allocate, which —
// unlike its wall time — repeats exactly: a contiguous list copies nothing,
// and re-packing a selection allocates per column (headers, the task list,
// one arena, the column), not per 128-row block.
func TestGatherAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const n = 600000
	rng := rand.New(rand.NewSource(17))
	vals := make([]int64, n)
	var list []int32
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 20))
		if rng.Intn(10) == 0 {
			list = append(list, int32(i))
		}
	}
	selective := column.Positions(list)
	plain := column.NewInt64("v", vals)
	packed := column.CompressInt64(plain)
	all := column.All(n)

	var out column.Column
	if a := testing.AllocsPerRun(10, func() { out = Gather(nil, plain, all) }); a > 2 {
		t.Errorf("contiguous gather of a plain column: %v allocations, want ≤ 2", a)
	}
	if got := out.(*column.Int64Column).Values; len(got) != n || &got[0] != &vals[0] {
		t.Error("contiguous gather of a plain column copied the rows")
	}
	if a := testing.AllocsPerRun(10, func() { out = Gather(nil, packed, selective) }); a > 8 {
		t.Errorf("selective serial gather of a bit-packed column: %v allocations, want ≤ 8", a)
	}
	if out.Len() != selective.Len() {
		t.Errorf("selective gather kept %d rows, want %d", out.Len(), selective.Len())
	}
}
