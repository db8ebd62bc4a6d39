package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"robustdb/internal/column"
)

// relation is a random table in every encoding a predicate can meet, with the
// raw values beside the columns for the row-at-a-time reference.
type relation struct {
	n      int
	ints   map[string][]int64   // i, g plain; p bit-packed; r runs; d, e dates (e bit-packed)
	floats map[string][]float64 // f, h
	strs   []string             // s
	cols   testCols
}

func randomRelation(rng *rand.Rand, n int) *relation {
	r := &relation{n: n, ints: map[string][]int64{}, floats: map[string][]float64{}}
	for _, name := range []string{"i", "g", "p", "r", "d", "e"} {
		r.ints[name] = make([]int64, n)
	}
	r.floats["f"], r.floats["h"], r.strs = make([]float64, n), make([]float64, n), make([]string, n)
	days := make([]int32, n)
	for k := 0; k < n; k++ {
		r.ints["i"][k] = rng.Int63n(40)
		r.ints["g"][k] = rng.Int63n(40)
		r.ints["p"][k] = int64(k/9) + rng.Int63n(30) // clustered: blocks the header decides, and straddlers
		r.ints["r"][k] = int64(k / 37 % 11)
		days[k] = int32(20200101 + k/5 + rng.Intn(20))
		r.ints["d"][k], r.ints["e"][k] = int64(days[k]), int64(days[k])
		r.floats["f"][k], r.floats["h"][k] = float64(rng.Intn(40))/2, float64(rng.Intn(40))
		if rng.Intn(17) == 0 {
			r.floats["f"][k] = math.NaN()
		}
		r.strs[k] = string(rune('a' + rng.Intn(12)))
	}
	r.cols = resolver(
		column.NewInt64("i", r.ints["i"]), column.NewInt64("g", r.ints["g"]),
		column.CompressInt64(column.NewInt64("p", r.ints["p"])), column.CompressInt64(column.NewInt64("r", r.ints["r"])),
		column.NewDate("d", days), column.CompressDate(column.NewDate("e", days)),
		column.NewFloat64("f", r.floats["f"]), column.NewFloat64("h", r.floats["h"]), column.NewString("s", r.strs))
	return r
}

// number returns row k of a numeric column as an integer or, for a float
// column, as a float.
func (r *relation) number(col string, k int) (int64, float64, bool) {
	if v, ok := r.ints[col]; ok {
		return v[k], float64(v[k]), true
	}
	return 0, r.floats[col][k], false
}

// holdsConst is "column op constant" at row k, evaluated on the raw values.
func (r *relation) holdsConst(col string, op CmpOp, c interface{}, k int) bool {
	if col == "s" {
		return refHolds(op, int64(cmpStrings(r.strs[k], c.(string))), 0)
	}
	i, f, isInt := r.number(col, k)
	if isInt {
		v, _ := asInt64(c)
		return refHolds(op, i, v)
	}
	v, _ := asFloat64(c)
	return refHolds(op, f, v)
}

func cmpStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// qualifies is the row-at-a-time reference: whether row k satisfies p.
func (r *relation) qualifies(p Predicate, k int) bool {
	switch p := p.(type) {
	case *Cmp:
		return r.holdsConst(p.Col, p.Op, p.Value, k)
	case *Between:
		return r.holdsConst(p.Col, GE, p.Lo, k) && r.holdsConst(p.Col, LE, p.Hi, k)
	case *In:
		return slices.ContainsFunc(p.Values, func(v interface{}) bool { return r.holdsConst(p.Col, EQ, v, k) })
	case *CmpCols:
		li, lf, lInt := r.number(p.Left, k)
		ri, rf, rInt := r.number(p.Right, k)
		if lInt && rInt {
			return refHolds(p.Op, li, ri)
		}
		return refHolds(p.Op, lf, rf)
	case *And:
		return !slices.ContainsFunc(p.Preds, func(q Predicate) bool { return !r.qualifies(q, k) })
	case *Or:
		return slices.ContainsFunc(p.Preds, func(q Predicate) bool { return r.qualifies(q, k) })
	}
	panic(fmt.Sprintf("no reference for %T", p))
}

// randomPredicate draws a predicate of the given nesting depth over the
// relation's columns: constants near the values, every operator, every kind.
func (r *relation) randomPredicate(rng *rand.Rand, depth int) Predicate {
	if depth > 0 && rng.Intn(3) > 0 {
		ops := make([]Predicate, 2+rng.Intn(2))
		for i := range ops {
			ops[i] = r.randomPredicate(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			return NewAnd(ops...)
		}
		return NewOr(ops...)
	}
	op := CmpOp(rng.Intn(6))
	intCols := []string{"i", "g", "p", "r", "d", "e"}
	constant := func(col string) interface{} {
		switch col {
		case "s":
			return string(rune('a'+rng.Intn(13))) + []string{"", "x"}[rng.Intn(2)] // present or not
		case "f", "h":
			return float64(rng.Intn(42)-1) / 2
		}
		return r.ints[col][rng.Intn(r.n)] + int64(rng.Intn(3)-1)
	}
	col := append(intCols, "f", "h", "s")[rng.Intn(9)]
	switch rng.Intn(5) {
	case 0:
		return NewBetween(col, constant(col), constant(col))
	case 1:
		return NewIn(col, constant(col), constant(col), constant(col))
	case 2:
		numeric := append(intCols, "f", "h")
		return NewCmpCols(numeric[rng.Intn(8)], op, numeric[rng.Intn(8)])
	}
	return NewCmp(col, op, constant(col))
}

// randomSelection draws an ascending selection of rows of [0, n): a range or
// a list of any density, either possibly empty.
func randomSelection(rng *rand.Rand, n int) column.PosList {
	lo := rng.Intn(n + 1)
	hi := lo + rng.Intn(n-lo+1)
	if rng.Intn(3) == 0 {
		return column.Range(lo, hi)
	}
	var list []int32
	for k, keep := lo, []float64{0.01, 0.3, 0.9, 1}[rng.Intn(4)]; k < hi; k++ {
		if rng.Float64() < keep {
			list = append(list, int32(k))
		}
	}
	return column.Positions(list)
}

func samePosList(a, b column.PosList) bool {
	_, _, aRange := a.AsRange()
	_, _, bRange := b.AsRange()
	return aRange == bRange && slices.Equal(a.Explicit(), b.Explicit())
}

// TestEvalNarrowsASelection states the contract of Eval for random nested
// predicates over every encoding: over any selection it returns exactly the
// rows of that selection the row-at-a-time reference keeps; over the pieces
// of any partition of a range, one after the other, what it returns over the
// range; and the operands of a conjunction in any order return the identical
// selection, arm included.
func TestEvalNarrowsASelection(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 60; round++ {
		r := randomRelation(rng, 1+rng.Intn(900))
		resolve, _ := r.cols.all()
		for trial := 0; trial < 25; trial++ {
			p := r.randomPredicate(rng, 3)
			sel := randomSelection(rng, r.n)
			got, err := p.Eval(resolve, sel)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			want := []int32{}
			for _, k := range sel.Explicit() {
				if r.qualifies(p, int(k)) {
					want = append(want, k)
				}
			}
			if !slices.Equal(got.Explicit(), want) {
				t.Fatalf("%s over %d of %d rows: got %d rows, the reference %d", p, sel.Len(), r.n, got.Len(), len(want))
			}

			lo, hi, isRange := sel.AsRange()
			if isRange {
				var parts []column.PosList
				for at := lo; at < hi; {
					next := min(hi, at+1+rng.Intn(300))
					part, err := p.Eval(resolve, column.Range(at, next))
					if err != nil {
						t.Fatal(err)
					}
					parts, at = append(parts, part), next
				}
				if whole := column.Concat(parts); !slices.Equal(whole.Explicit(), got.Explicit()) {
					t.Fatalf("%s: the pieces of [%d,%d) select %d rows, the range %d", p, lo, hi, whole.Len(), got.Len())
				}
			}

			if and, ok := p.(*And); ok {
				for i := 0; i < 6; i++ {
					shuffled := slices.Clone(and.Preds)
					rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
					again, err := NewAnd(shuffled...).Eval(resolve, sel)
					if err != nil || !samePosList(again, got) {
						t.Fatalf("%s reordered as %s: %d rows, was %d (%v)", p, NewAnd(shuffled...), again.Len(), got.Len(), err)
					}
				}
			}
		}
	}
}

// Two integer columns compare as integers: float64 cannot tell 2^53 + 1 from
// 2^53, and rounds the ends of int64 onto their neighbours.
func TestCmpColsComparesIntegersExactly(t *testing.T) {
	a := []int64{9007199254740993, 9007199254740992, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 5}
	b := []int64{9007199254740992, 9007199254740993, math.MaxInt64, math.MinInt64, math.MaxInt64, 5}
	plainA, plainB := column.NewInt64("a", a), column.NewInt64("b", b)
	for label, cols := range map[string]testCols{
		"plain":      resolver(plainA, plainB),
		"bit-packed": resolver(column.Compress(plainA), column.Compress(plainB)),
		"mixed":      resolver(plainA, column.Compress(plainB)),
	} {
		for op := EQ; op <= GE; op++ {
			var want []int32
			for i := range a {
				if refHolds(op, a[i], b[i]) {
					want = append(want, int32(i))
				}
			}
			for _, sel := range []column.PosList{column.All(len(a)), column.Positions([]int32{0, 1, 2, 3, 4, 5})} {
				got, err := NewCmpCols("a", op, "b").Eval(resolveOf(cols), sel)
				if err != nil {
					t.Fatal(err)
				}
				assertPos(t, fmt.Sprintf("%s: a %s b", label, op), got, want)
			}
		}
	}
}

func resolveOf(cols testCols) Resolver {
	resolve, _ := cols.all()
	return resolve
}

// Every integer constant type compares with every numeric column; a float
// constant only with a float column; nothing else with either.
func TestConstantCoercion(t *testing.T) {
	ints := column.NewInt64("x", []int64{1, 2, 3})
	cols := map[string]column.Column{
		"int64": ints, "date": column.NewDate("x", []int32{1, 2, 3}),
		"float64": column.NewFloat64("x", []float64{1, 2, 3}), "bit-packed": column.Compress(ints),
	}
	constants := []struct {
		two, three interface{}
		integer    bool
	}{{2, 3, true}, {int32(2), int32(3), true}, {int64(2), int64(3), true}, {2.0, 3.0, false}}
	for label, col := range cols {
		r := resolver(col)
		for _, c := range constants {
			cmp, errCmp := NewCmp("x", LT, c.two).Eval(r.all())
			btw, errBtw := NewBetween("x", c.two, c.three).Eval(r.all())
			if accepted := c.integer || label == "float64"; !accepted {
				if errCmp == nil || errBtw == nil {
					t.Errorf("%s column accepted the constant %T", label, c.two)
				}
				continue
			}
			if errCmp != nil || errBtw != nil {
				t.Fatalf("%s column, constant %T: %v, %v", label, c.two, errCmp, errBtw)
			}
			assertPos(t, fmt.Sprintf("%s: x < %T(2)", label, c.two), cmp, []int32{0})
			assertPos(t, fmt.Sprintf("%s: x between %T 2 and 3", label, c.two), btw, []int32{1, 2})
		}
		for _, bad := range []interface{}{"2", true, nil} {
			if _, err := NewCmp("x", LT, bad).Eval(r.all()); err == nil {
				t.Errorf("%s column accepted the constant %T", label, bad)
			}
			if _, err := NewBetween("x", 1, bad).Eval(r.all()); err == nil {
				t.Errorf("%s column accepted the bound %T", label, bad)
			}
		}
	}
}
