package engine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"robustdb/internal/column"
)

func TestHashJoinBasic(t *testing.T) {
	dim := MustNewBatch(
		column.NewInt64("dk", []int64{1, 2, 3}),
		column.NewString("dname", []string{"one", "two", "three"}),
	)
	fact := MustNewBatch(
		column.NewInt64("fk", []int64{2, 3, 2, 9}),
		column.NewFloat64("val", []float64{10, 20, 30, 40}),
	)
	res, err := HashJoin(nil, dim, "dk", fact, "fk")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("matches = %d, want 3", res.NumRows())
	}
	// Probe order: fact rows 0,1,2 match.
	want := &JoinResult{LeftPos: column.Positions([]int32{1, 2, 1}), RightPos: column.Range(0, 3)}
	if !sameJoin(res, want) {
		t.Fatalf("matches = (%v, %v), want (%v, %v)", res.LeftPos.Explicit(), res.RightPos.Explicit(),
			want.LeftPos.Explicit(), want.RightPos.Explicit())
	}
	out, err := MaterializeJoin(nil, res, dim, []string{"dname"}, fact, []string{"val"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("materialized rows = %d", out.NumRows())
	}
	names := out.MustColumn("dname").(*column.StringColumn)
	if names.Value(0) != "two" || names.Value(1) != "three" || names.Value(2) != "two" {
		t.Fatalf("dname join wrong")
	}
}

func TestHashJoinDuplicatesBothSides(t *testing.T) {
	l := MustNewBatch(column.NewInt64("k", []int64{5, 5}))
	r := MustNewBatch(column.NewInt64("k", []int64{5, 5, 5}))
	res, err := HashJoin(nil, l, "k", r, "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Fatalf("matches = %d, want 6", res.NumRows())
	}
}

func TestJoinDateKeys(t *testing.T) {
	l := MustNewBatch(column.NewDate("d", []int32{10, 20}))
	r := MustNewBatch(column.NewDate("d", []int32{20, 30}))
	res, err := HashJoin(nil, l, "d", r, "d")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.LeftPos.Explicit()[0] != 1 || res.RightPos.Explicit()[0] != 0 {
		t.Fatalf("date join wrong: %+v", res)
	}
}

func TestJoinErrors(t *testing.T) {
	b := MustNewBatch(column.NewInt64("k", []int64{1}))
	s := MustNewBatch(column.NewFloat64("f", []float64{1}))
	if _, err := HashJoin(nil, b, "zz", b, "k"); err == nil {
		t.Fatal("expected build-side error")
	}
	if _, err := HashJoin(nil, b, "k", b, "zz"); err == nil {
		t.Fatal("expected probe-side error")
	}
	if _, err := HashJoin(nil, s, "f", b, "k"); err == nil {
		t.Fatal("expected key-type error on build")
	}
	if _, err := HashJoin(nil, b, "k", s, "f"); err == nil {
		t.Fatal("expected key-type error on probe")
	}
	if _, err := SemiJoin(nil, b, "zz", b, "k"); err == nil {
		t.Fatal("expected semi-join build error")
	}
	if _, err := SemiJoin(nil, b, "k", b, "zz"); err == nil {
		t.Fatal("expected semi-join probe error")
	}
	if _, err := SemiJoin(nil, s, "f", b, "k"); err == nil {
		t.Fatal("expected semi-join key-type error")
	}
	if _, err := SemiJoin(nil, b, "k", s, "f"); err == nil {
		t.Fatal("expected semi-join probe key-type error")
	}
	if _, err := NestedLoopJoin(b, "zz", b, "k"); err == nil {
		t.Fatal("expected nlj error")
	}
	if _, err := NestedLoopJoin(b, "k", b, "zz"); err == nil {
		t.Fatal("expected nlj error")
	}
	res := &JoinResult{LeftPos: column.Range(0, 1), RightPos: column.Range(0, 1)}
	if _, err := MaterializeJoin(nil, res, b, []string{"zz"}, b, nil); err == nil {
		t.Fatal("expected materialize error left")
	}
	if _, err := MaterializeJoin(nil, res, b, nil, b, []string{"zz"}); err == nil {
		t.Fatal("expected materialize error right")
	}
}

// A join result has a row a match whichever columns are kept of it — none
// at all included — and Join, which then writes no build positions over
// unique build keys, agrees with HashJoin + MaterializeJoin.
func TestJoinRowCountWithoutColumns(t *testing.T) {
	fact := MustNewBatch(column.NewInt64("fk", []int64{1, 2, 3, 4, 2}), column.NewInt64("v", []int64{10, 20, 30, 40, 50}))
	for name, keys := range map[string][]int64{"unique": {2, 4}, "duplicated": {2, 4, 2}, "all": {1, 2, 3, 4}} {
		dim := MustNewBatch(column.NewInt64("dk", keys))
		res, err := HashJoin(nil, dim, "dk", fact, "fk")
		if err != nil {
			t.Fatal(err)
		}
		none, err := MaterializeJoin(nil, res, dim, nil, fact, nil)
		if err != nil || none.NumRows() != res.NumRows() || none.NumColumns() != 0 || none.Bytes() != 0 {
			t.Fatalf("%s: join keeping no column: %d rows, %d columns (%v), want %d rows", name, none.NumRows(), none.NumColumns(), err, res.NumRows())
		}
		want, err := MaterializeJoin(nil, res, dim, nil, fact, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Join(nil, dim, "dk", nil, fact, "fk", []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != res.NumRows() {
			t.Fatalf("%s: Join without build columns has %d rows, want %d", name, got.NumRows(), res.NumRows())
		}
		assertBatchEqual(t, name, got, want)
	}
}

func TestSemiJoin(t *testing.T) {
	dim := MustNewBatch(column.NewInt64("dk", []int64{2, 4}))
	fact := MustNewBatch(column.NewInt64("fk", []int64{1, 2, 3, 4, 2}))
	pos, err := SemiJoin(nil, dim, "dk", fact, "fk")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 3, 4}; !slices.Equal(pos.Explicit(), want) {
		t.Fatalf("semi join = %v, want %v", pos.Explicit(), want)
	}
}

// Property: HashJoin produces exactly the matches of NestedLoopJoin, in the
// same (probe-major, build-minor) order.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := rng.Intn(30)+1, rng.Intn(30)+1
		lv := make([]int64, nl)
		rv := make([]int64, nr)
		for i := range lv {
			lv[i] = rng.Int63n(8)
		}
		for i := range rv {
			rv[i] = rng.Int63n(8)
		}
		l := MustNewBatch(column.NewInt64("k", lv))
		r := MustNewBatch(column.NewInt64("k", rv))
		hj, err1 := HashJoin(nil, l, "k", r, "k")
		nlj, err2 := NestedLoopJoin(l, "k", r, "k")
		if err1 != nil || err2 != nil {
			return false
		}
		return sameJoin(hj, nlj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SemiJoin(nil, probe) == distinct probe positions of HashJoin.
func TestSemiJoinMatchesHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := rng.Intn(20)+1, rng.Intn(40)+1
		lv := make([]int64, nl)
		rv := make([]int64, nr)
		for i := range lv {
			lv[i] = rng.Int63n(6)
		}
		for i := range rv {
			rv[i] = rng.Int63n(6)
		}
		l := MustNewBatch(column.NewInt64("k", lv))
		r := MustNewBatch(column.NewInt64("k", rv))
		semi, err1 := SemiJoin(nil, l, "k", r, "k")
		hj, err2 := HashJoin(nil, l, "k", r, "k")
		if err1 != nil || err2 != nil {
			return false
		}
		return slices.Equal(semi.Explicit(), slices.Compact(slices.Clone(hj.RightPos.Explicit())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
