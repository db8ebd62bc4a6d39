package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// eagerBatch is the reference a batch with pending columns is held to: the
// same relation with every gather done when it is asked for, each step the
// NewBatch(GatherAll(…)) the operators used to be.
type eagerBatch struct{ cols []column.Column }

func (e eagerBatch) gather(pos column.PosList) eagerBatch {
	return eagerBatch{GatherAll(nil, e.cols, pos)}
}

func (e eagerBatch) project(names []string) eagerBatch {
	var out eagerBatch
	for _, n := range names {
		for _, c := range e.cols {
			if c.Name() == n {
				out.cols = append(out.cols, c)
			}
		}
	}
	return out
}

func (e eagerBatch) names() []string {
	names := make([]string, len(e.cols))
	for i, c := range e.cols {
		names[i] = c.Name()
	}
	return names
}

func (e eagerBatch) bytes() (n int64) {
	for _, c := range e.cols {
		n += c.Bytes()
	}
	return n
}

// sameColumn is reflect.DeepEqual, but float columns compare by their bits:
// a NaN is not DeepEqual to itself.
func sameColumn(a, b column.Column) bool {
	fa, ok := a.(*column.Float64Column)
	fb, ok2 := b.(*column.Float64Column)
	if !ok || !ok2 {
		return reflect.DeepEqual(a, b)
	}
	if fa.Name() != fb.Name() || len(fa.Values) != len(fb.Values) {
		return false
	}
	for i, v := range fa.Values {
		if math.Float64bits(v) != math.Float64bits(fb.Values[i]) {
			return false
		}
	}
	return true
}

// mixedRelation is n random rows in every layout a batch can carry: the four
// plain ones, whose gathers may wait, and bit-packed ones, whose gathers may
// not.
func mixedRelation(rng *rand.Rand, n int) []column.Column {
	ints, runs := make([]int64, n), make([]int64, n)
	floats := make([]float64, n)
	dates := make([]int32, n)
	strs := make([]string, n)
	words := []string{"ada", "bern", "caen", "dijon", "essen", "fes"}
	for i := range ints {
		ints[i] = rng.Int63n(1<<40) - 1<<39
		runs[i] = int64(i / (1 + n/50))
		floats[i] = rng.NormFloat64()
		if rng.Intn(9) == 0 {
			floats[i] = math.NaN()
		}
		dates[i] = int32(rng.Intn(4000))
		strs[i] = words[rng.Intn(len(words))]
	}
	return []column.Column{
		column.NewInt64("i", ints),
		column.NewFloat64("f", floats),
		column.NewDate("d", dates),
		column.NewString("s", strs),
		column.CompressInt64(column.NewInt64("packed", ints)),
		column.CompressDate(column.NewDate("pdate", dates)),
		column.CompressInt64(column.NewInt64("runs", runs)),
	}
}

// randomPositions picks rows of a relation of n rows in one of the shapes
// the operators produce.
func randomPositions(rng *rand.Rand, n int) column.PosList {
	switch shape := rng.Intn(5); {
	case shape == 0 || n == 0:
		return column.PosList{}
	case shape == 1: // a range: a scan chunk, a join whose every probe row matched
		lo := rng.Intn(n)
		return column.Range(lo, lo+rng.Intn(n-lo+1))
	case shape == 2: // ascending: a selection
		var list []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				list = append(list, int32(i))
			}
		}
		return column.Ascending(list)
	default: // any order, with repeats: the build side of a join, a sort
		list := make([]int32, rng.Intn(2*n+1))
		for i := range list {
			list[i] = int32(rng.Intn(n))
		}
		return column.Positions(list)
	}
}

// TestDeferredBatchEqualsEager: whatever chain of gathers, projections and
// extensions a relation goes through, and in whatever order its columns are
// then read, a batch answers what the eager reference answers — names, row
// count, footprint (before any column is forced, and after), every value —
// at every worker count.
func TestDeferredBatchEqualsEager(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed / 4)) // every relation and chain at each of the four worker counts
		w := workerCounts()[seed%4]
		n := rng.Intn(300)
		if seed%24 < 4 {
			n = 2*par.DefaultMorselRows + rng.Intn(par.DefaultMorselRows) // the gathers fan out
		}
		base := mixedRelation(rng, n)
		ctx := ctxFor(w)
		got, want := MustNewBatch(base...), eagerBatch{base}
		label := fmt.Sprintf("seed %d, %d workers, %d rows", seed/4, w, n)
		for step, steps := 0, 1+rng.Intn(4); step < steps; step++ {
			pos := randomPositions(rng, got.NumRows())
			got, want = got.GatherCtx(ctx, pos), want.gather(pos)
			label += fmt.Sprintf(", gather %d", pos.Len())
			switch rng.Intn(3) {
			case 0:
				names := want.names()
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
				names = names[:rng.Intn(len(names)+1)]
				var err error
				if got, err = got.Project(names...); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want = want.project(names)
				label += fmt.Sprintf(", project %v", names)
			case 1:
				if got.Has(fmt.Sprint("x", step)) {
					break
				}
				extra := make([]float64, got.NumRows())
				for i := range extra {
					extra[i] = rng.Float64()
				}
				col := column.NewFloat64(fmt.Sprint("x", step), extra)
				var err error
				if got, err = got.Extend(col); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want.cols = append(want.cols[:len(want.cols):len(want.cols)], col)
				label += ", extend"
			}
			if len(want.cols) > 0 && got.NumRows() != want.cols[0].Len() {
				t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.cols[0].Len())
			}
		}
		if !reflect.DeepEqual(got.ColumnNames(), want.names()) {
			t.Fatalf("%s: columns %v, want %v", label, got.ColumnNames(), want.names())
		}
		if got.Bytes() != want.bytes() {
			t.Fatalf("%s: %d bytes before any column is read, want %d", label, got.Bytes(), want.bytes())
		}
		for _, i := range rng.Perm(len(want.cols)) {
			c, err := got.column(ctx, want.cols[i].Name())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !sameColumn(c, want.cols[i]) {
				t.Fatalf("%s: column %s differs from the eager gather", label, c.Name())
			}
			if again := got.MustColumn(c.Name()); again != c {
				t.Fatalf("%s: column %s was gathered twice", label, c.Name())
			}
		}
		if got.Bytes() != want.bytes() {
			t.Fatalf("%s: %d bytes after every column is read, want %d", label, got.Bytes(), want.bytes())
		}
		for i, c := range got.Columns() {
			if !sameColumn(c, want.cols[i]) {
				t.Fatalf("%s: Columns()[%d] differs from the eager gather", label, i)
			}
		}
	}
}

// TestPendingColumnConcurrentReaders: readers that ask for the same pending
// columns at once — directly, and as the resolver of a filter's parallel
// morsels — all get the one column a single gather made.
func TestPendingColumnConcurrentReaders(t *testing.T) {
	const readers = 8
	rng := rand.New(rand.NewSource(1))
	n := 3 * par.DefaultMorselRows
	base := MustNewBatch(mixedRelation(rng, n)[:4]...)
	list := make([]int32, 2*n) // any order, with repeats, several morsels long
	for i := range list {
		list[i] = int32(rng.Intn(n))
	}
	pos := column.Positions(list)
	want := eagerBatch{base.Columns()}.gather(pos)
	pred := expr.NewAnd(expr.NewCmp("s", expr.NE, "caen"), expr.NewCmp("i", expr.LT, int64(0)))
	for round := 0; round < 5; round++ {
		b := base.Gather(pos).Gather(column.All(pos.Len())) // pending, composed once
		wantSel, err := FilterRange(nil, MustNewBatch(want.cols...), pred, 0, pos.Len())
		if err != nil {
			t.Fatal(err)
		}
		seen := make([][]column.Column, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if r%2 == 0 {
					sel, err := FilterRange(ctxFor(4), b, pred, 0, b.NumRows())
					if err != nil || !samePos(sel, wantSel) {
						t.Errorf("reader %d: filter over pending columns selected %d rows (%v), want %d", r, sel.Len(), err, wantSel.Len())
					}
				}
				for _, name := range []string{"i", "f", "d", "s"} {
					seen[r] = append(seen[r], b.MustColumn(name))
				}
			}(r)
		}
		wg.Wait()
		for r := range seen {
			for i, c := range seen[r] {
				if c != seen[0][i] {
					t.Fatalf("reader %d got its own copy of column %s", r, c.Name())
				}
				if !sameColumn(c, want.cols[i]) {
					t.Fatalf("column %s differs from the eager gather", c.Name())
				}
			}
		}
	}
}

// allocatedBytes is what one run of f allocates, after a warm-up run.
func allocatedBytes(f func()) uint64 {
	const runs = 3
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs-1, f) // runs f once more than it counts
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// eagerJoin is Join with both sides copied in full as the join returns.
func eagerJoin(t *testing.T, left *Batch, leftKey string, leftCols []string, right *Batch, rightKey string, rightCols []string) *Batch {
	t.Helper()
	res, err := HashJoin(nil, left, leftKey, right, rightKey)
	if err != nil {
		t.Fatal(err)
	}
	l := eagerBatch{left.Columns()}.project(leftCols).gather(res.LeftPos)
	r := eagerBatch{right.Columns()}.project(rightCols).gather(res.RightPos)
	return MustNewBatch(append(l.cols, r.cols...)...)
}

// TestJoinChainCopiesEachColumnOnce pins the work of a left-deep join chain,
// not only its result: the first three joins of SSB Q4.1 — customer, whose
// nation is kept, then supplier and part, which only filter, each keeping a
// fifth of the fact rows, with the order date and the two measures carried to
// the end — allocate a fraction of what copying every carried column at
// every join does, and a join that keeps no build column over unique keys
// writes no build positions.
func TestJoinChainCopiesEachColumnOnce(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const factRows, dimRows = 600000, 1000
	rng := rand.New(rand.NewSource(23))
	factCols := []string{"k0", "k1", "k2", "orderdate", "revenue", "cost"}
	var cols []column.Column
	for _, name := range factCols {
		vals, days := make([]int64, factRows), make([]int32, factRows)
		for i := range vals {
			vals[i] = rng.Int63n(dimRows)
			days[i] = int32(vals[i])
		}
		if name == "orderdate" {
			cols = append(cols, column.NewDate(name, days))
		} else {
			cols = append(cols, column.NewInt64(name, vals))
		}
	}
	fact := MustNewBatch(cols...)
	dims := make([]*Batch, 3) // the fifth of each dimension its filter kept
	for d := range dims {
		keys, attr := make([]int64, dimRows/5), make([]int64, dimRows/5)
		for i := range keys {
			keys[i], attr[i] = int64(5*i+d), int64(i%25)
		}
		dims[d] = MustNewBatch(column.NewInt64(fmt.Sprint("dk", d), keys), column.NewInt64(fmt.Sprint("attr", d), attr))
	}
	type joinFn func(left *Batch, leftKey string, leftCols []string, right *Batch, rightKey string, rightCols []string) *Batch
	chain := func(join joinFn) *Batch {
		out, carried, kept := fact, factCols, []string{"attr0"}
		for d, dim := range dims {
			carried = carried[1:] // the key this join consumes
			out = join(dim, fmt.Sprint("dk", d), kept, out, fmt.Sprint("k", d), carried)
			carried, kept = append(carried[:len(carried):len(carried)], kept...), nil
		}
		out.Columns() // the aggregation reads every column
		return out
	}
	deferred := func(left *Batch, leftKey string, leftCols []string, right *Batch, rightKey string, rightCols []string) *Batch {
		out, err := Join(nil, left, leftKey, leftCols, right, rightKey, rightCols)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	eager := func(left *Batch, leftKey string, leftCols []string, right *Batch, rightKey string, rightCols []string) *Batch {
		return eagerJoin(t, left, leftKey, leftCols, right, rightKey, rightCols)
	}
	got, want := chain(deferred), chain(eager)
	if got.NumRows() < factRows/200 || got.NumRows() > factRows/80 {
		t.Fatalf("chain kept %d of %d rows, want about 1/125", got.NumRows(), factRows)
	}
	assertBatchEqual(t, "join chain", got, want)
	gotBytes, wantBytes := allocatedBytes(func() { chain(deferred) }), allocatedBytes(func() { chain(eager) })
	if 100*gotBytes > 40*wantBytes {
		t.Errorf("join chain allocates %d bytes, %d%% of the %d the eager chain does, want ≤ 40%%",
			gotBytes, 100*gotBytes/wantBytes, wantBytes)
	}

	// No build column kept, unique build keys: the matches of the probe
	// side only. HashJoin writes the build positions as well.
	var total int
	both := allocatedBytes(func() {
		res, err := HashJoin(nil, dims[0], "dk0", fact, "k0")
		if err != nil {
			t.Fatal(err)
		}
		total = res.NumRows()
	})
	probeOnly := allocatedBytes(func() {
		out, err := Join(nil, dims[0], "dk0", nil, fact, "k0", []string{"revenue"})
		if err != nil || out.NumRows() != total {
			t.Fatalf("join without build columns: %d rows (%v), want %d", out.NumRows(), err, total)
		}
	})
	if list := uint64(4 * total); probeOnly+list*9/10 > both {
		t.Errorf("join keeping no build column allocates %d bytes against %d with the %d-byte list of build positions: it wrote one",
			probeOnly, both, list)
	}
}
