package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// workerCounts are the pool sizes every kernel must be bit-identical across:
// serial (nil ctx), a one-worker pool, even and odd multi-worker pools, and
// whatever the host offers.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// randomBatch builds a seeded batch spanning several morsels so the parallel
// paths actually split the input: int64 keys with heavy duplication, floats,
// dates, and a dictionary string column.
func randomBatch(t *testing.T, seed int64, n int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	vals := make([]float64, n)
	dates := make([]int32, n)
	cities := make([]string, n)
	names := []string{"ada", "bern", "caen", "dijon", "essen"}
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
		vals[i] = rng.Float64()*200 - 100
		dates[i] = int32(20200101 + rng.Intn(365))
		cities[i] = names[rng.Intn(len(names))]
	}
	b, err := NewBatch(
		column.NewInt64("k", keys),
		column.NewFloat64("v", vals),
		column.NewDate("d", dates),
		column.NewString("city", cities),
	)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ctxFor builds a kernel context over a w-worker pool.
func ctxFor(w int) *Ctx { return NewCtx(par.New(w)) }

// samePos reports whether two position lists select the same rows in the same
// order, whichever arm holds them.
func samePos(a, b column.PosList) bool { return slices.Equal(a.Explicit(), b.Explicit()) }

func sameJoin(a, b *JoinResult) bool {
	return samePos(a.LeftPos, b.LeftPos) && samePos(a.RightPos, b.RightPos)
}

// assertBatchEqual compares two batches column by column with DeepEqual —
// every value bit, the column order, and the names must match.
func assertBatchEqual(t *testing.T, label string, got, want *Batch) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
		return
	}
	if !reflect.DeepEqual(got.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("%s: columns %v, want %v", label, got.ColumnNames(), want.ColumnNames())
	}
	for _, name := range want.ColumnNames() {
		if !reflect.DeepEqual(got.MustColumn(name), want.MustColumn(name)) {
			t.Fatalf("%s: column %s differs from serial result", label, name)
		}
	}
}

// TestFilterWorkerInvariance: qualifying positions are identical at every
// worker count.
func TestFilterWorkerInvariance(t *testing.T) {
	n := 3*par.DefaultMorselRows + 123
	b := randomBatch(t, 1, n)
	pred := expr.NewAnd(
		expr.NewCmp("v", expr.GE, -50.0),
		expr.NewCmp("city", expr.NE, "caen"),
	)
	want, err := Filter(nil, b, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := Filter(ctxFor(w), b, pred)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !samePos(got, want) {
			t.Fatalf("workers=%d: %d positions, want %d (or contents differ)", w, got.Len(), want.Len())
		}
	}
}

// TestSelectWorkerInvariance: the gathered batch — including the shared-dict
// string column — matches the serial result exactly.
func TestSelectWorkerInvariance(t *testing.T) {
	n := 2*par.DefaultMorselRows + 777
	b := randomBatch(t, 2, n)
	pred := expr.NewCmp("k", expr.LT, int64(250))
	want, err := Select(nil, b, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := Select(ctxFor(w), b, pred)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertBatchEqual(t, fmt.Sprintf("select workers=%d", w), got, want)
	}
}

// TestHashJoinWorkerInvariance: build rows, probe rows, and pair order are
// identical at every worker count — and match the nested-loop reference.
func TestHashJoinWorkerInvariance(t *testing.T) {
	nb := par.DefaultMorselRows + 1000
	np := 2*par.DefaultMorselRows + 333
	build := randomBatch(t, 3, nb)
	probe := randomBatch(t, 4, np)
	want, err := HashJoin(nil, build, "k", probe, "k")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NestedLoopJoin(build, "k", probe, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !sameJoin(want, ref) {
		t.Fatal("serial hash join disagrees with nested-loop reference")
	}
	for _, w := range workerCounts() {
		got, err := HashJoin(ctxFor(w), build, "k", probe, "k")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !sameJoin(got, want) {
			t.Fatalf("workers=%d: join result differs from serial (%d vs %d pairs)",
				w, got.NumRows(), want.NumRows())
		}
	}
}

// TestSemiJoinWorkerInvariance: the kept probe positions are identical at
// every worker count.
func TestSemiJoinWorkerInvariance(t *testing.T) {
	build := randomBatch(t, 5, 4000)
	probe := randomBatch(t, 6, 3*par.DefaultMorselRows+1)
	want, err := SemiJoin(nil, build, "k", probe, "k")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := SemiJoin(ctxFor(w), build, "k", probe, "k")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !samePos(got, want) {
			t.Fatalf("workers=%d: %d positions, want %d (or contents differ)", w, got.Len(), want.Len())
		}
	}
}

// TestGroupByWorkerInvariance: group order and every float accumulation bit
// are identical at every worker count — the canonical morsel decomposition
// fixes the fold order regardless of scheduling.
func TestGroupByWorkerInvariance(t *testing.T) {
	n := 4*par.DefaultMorselRows + 55
	b := randomBatch(t, 7, n)
	keys := []string{"city", "k"}
	aggs := []AggSpec{
		{Func: Sum, Col: "v", As: "sum_v"},
		{Func: Avg, Col: "v", As: "avg_v"},
		{Func: Min, Col: "d", As: "min_d"},
		{Func: Max, Col: "d", As: "max_d"},
		{Func: Count, As: "n"},
	}
	want, err := GroupBy(nil, b, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := GroupBy(ctxFor(w), b, keys, aggs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertBatchEqual(t, fmt.Sprintf("groupby workers=%d", w), got, want)
	}
}

// TestComputeWorkerInvariance: derived columns are identical at every worker
// count for column-column, column-const, and const-column forms.
func TestComputeWorkerInvariance(t *testing.T) {
	n := 2*par.DefaultMorselRows + 99
	b := randomBatch(t, 8, n)
	wantCC, err := Compute(nil, b, "r", "v", Mul, "v")
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := ComputeConst(nil, b, "r", "v", Add, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	wantCL, err := ComputeConstLeft(nil, b, "r", 1, Sub, "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		ctx := ctxFor(w)
		cc, err := Compute(ctx, b, "r", "v", Mul, "v")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		c, err := ComputeConst(ctx, b, "r", "v", Add, 3.5)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		cl, err := ComputeConstLeft(ctx, b, "r", 1, Sub, "v")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for label, pair := range map[string][2]column.Column{
			"col-col": {cc, wantCC}, "col-const": {c, wantC}, "const-col": {cl, wantCL},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("workers=%d: %s compute differs from serial", w, label)
			}
		}
	}
}

// TestGatherWorkerInvariance: every column type gathers identically at every
// worker count, including the dictionary-shared string column.
func TestGatherWorkerInvariance(t *testing.T) {
	n := 3 * par.DefaultMorselRows
	b := randomBatch(t, 9, n)
	rng := rand.New(rand.NewSource(10))
	pos := make([]int32, 2*par.DefaultMorselRows+17)
	for i := range pos {
		pos[i] = int32(rng.Intn(n))
	}
	for _, name := range b.ColumnNames() {
		c := b.MustColumn(name)
		want := c.Gather(pos)
		for _, w := range workerCounts() {
			got := Gather(ctxFor(w), c, column.Positions(pos))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: gather of %s differs from serial", w, name)
			}
		}
	}
}

// TestParallelErrorDeterminism: the surfaced error is the serial one — the
// lowest-row failure — at every worker count.
func TestParallelErrorDeterminism(t *testing.T) {
	n := 3 * par.DefaultMorselRows
	vals := make([]float64, n)
	div := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
		div[i] = 1
	}
	// Zeros in several morsels; the first one (lowest row) must win.
	firstZero := par.DefaultMorselRows + 41
	div[firstZero] = 0
	div[2*par.DefaultMorselRows+99] = 0
	b := MustNewBatch(column.NewFloat64("a", vals), column.NewFloat64("z", div))
	_, wantErr := Compute(nil, b, "r", "a", Div, "z")
	if wantErr == nil {
		t.Fatal("expected a division-by-zero error")
	}
	for _, w := range workerCounts() {
		_, err := Compute(ctxFor(w), b, "r", "a", Div, "z")
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error %v, want %v", w, err, wantErr)
		}
	}
}
